"""The grouped AutoThreshold window against the per-copy window of
``helpers.ReferenceWindow`` on hypothesis-drawn instances of every
objective and system family.

Copies that hold one kept set share one state in the grouped window, and
each copy keeps states of its own in the reference, which also works out
each band from its own ``tau / gain``.  After every arrival both must
agree on the evictions in order, the live exponents, every copy's kept
set and buckets in member order, and ``stored_count()``, and the groups
must keep their invariants (``helpers.check_groups``); at end of stream
on the solution, summary, residual, candidates and count.  The grouped
window must never ask more oracle queries than the reference.
"""

from hypothesis import assume, given, settings, strategies as st

from substream import AutoThresholdSieve

from helpers import (OBJECTIVE_FAMILIES, SYSTEM_FAMILIES, ReferenceWindow,
                     check_groups, family_instance, max_feasible_singleton)


def _copies(window):
    return {e: (list(c.kept), c.ell, [list(b) for b in c.buckets])
            for e, c in window.copies.items()}


@st.composite
def window_cases(draw):
    n = draw(st.integers(4, 14))
    return (n, draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(OBJECTIVE_FAMILIES)),
            draw(st.sampled_from(SYSTEM_FAMILIES)),
            draw(st.booleans()), draw(st.permutations(range(n))))


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(window_cases())
def test_grouped_window_matches_the_per_copy_window(case):
    sys, f = family_instance(*case[:4])
    ref_sys, ref_f = family_instance(*case[:4])
    assume(max_feasible_singleton(sys, f) > 0)
    stream = case[-1]
    if case[-2]:
        # rising singletons climb the window past copies that still hold
        # elements, so dropped groups evict
        stream = sorted(stream, key=f.singleton)
    f.evaluations = ref_f.evaluations = 0
    window, ref = AutoThresholdSieve(sys, f), ReferenceWindow(ref_sys, ref_f)
    for u in stream:
        assert window.push([u]) == ref.push([u])
        assert _copies(window) == _copies(ref)
        assert window.stored_count() == ref.stored_count()
        check_groups(window, window.active_exponents())
    got, want = window.finish(), ref.finish()
    assert list(got.solution) == list(want.solution)
    assert list(got.summary) == list(want.summary)
    assert list(got.residual) == list(want.residual)
    assert window.stored_count() == ref.stored_count()
    assert {e: [list(t) for t in c.candidates]
            for e, c in window.copies.items()} == {
        e: [list(t) for t in c.candidates] for e, c in ref.copies.items()}
    assert f.evaluations <= ref_f.evaluations
