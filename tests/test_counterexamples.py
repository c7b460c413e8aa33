import math
import re

import pytest

from substream import (build_g1, build_g2, counterexamples,
                       make_directed_cut, verify_preemption_counterexample,
                       verify_ratio_swap_counterexample, w_sequence,
                       w_sequence_closed_form, w_sequence_total)
from substream.core import _running_sum

from helpers import brute_optimum_matches


def test_w_sequence_examples():
    assert w_sequence(1) == [2.0]
    assert w_sequence(2) == [2.0, 2.5]
    ws = w_sequence(3)
    assert abs(ws[1] - 7.0 / 3.0) <= 1e-12
    assert abs(ws[2] - 25.0 / 9.0) <= 1e-12
    assert abs(sum(ws) - 64.0 / 9.0) <= 1e-12


def _w_sequence_quadratic(rho):
    """The recurrence with every earlier weight added anew at each step."""
    ws = [2.0]
    for i in range(2, rho + 1):
        ws.append((2 * rho + 1 - i + _running_sum(ws)) / rho)
    return ws


@pytest.mark.parametrize("rho", [*range(1, 65), 400])
def test_w_sequence_keeps_the_bits_of_the_quadratic_recurrence(rho):
    assert ([w.hex() for w in w_sequence(rho)]
            == [w.hex() for w in _w_sequence_quadratic(rho)])


def test_w_sequence_closed_form_agrees():
    for rho in range(1, 65):
        rec = w_sequence(rho)
        closed = w_sequence_closed_form(rho)
        for a, b in zip(rec, closed):
            assert abs(a - b) <= 1e-9
        assert abs(sum(rec) - w_sequence_total(rho)) <= 1e-9


def test_w_sequence_values_bounded():
    for rho in (1, 2, 5, 16, 64):
        for w in w_sequence(rho):
            assert w <= 1.0 + math.e + 1e-9


def test_w_sequence_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        w_sequence(0)


RHO_TAKERS = {
    "build_g1": build_g1,
    "build_g2": build_g2,
    "w_sequence": w_sequence,
    "w_sequence_closed_form": w_sequence_closed_form,
    "verify_preemption_counterexample": verify_preemption_counterexample,
    "verify_ratio_swap_counterexample": verify_ratio_swap_counterexample,
}


@pytest.mark.parametrize("name", list(RHO_TAKERS))
def test_whole_float_rho_is_taken_as_an_int(name):
    rho = 4.0 if name == "verify_ratio_swap_counterexample" else 3.0
    got, want = RHO_TAKERS[name](rho), RHO_TAKERS[name](int(rho))
    if isinstance(got, list):
        assert got == want
    elif name.startswith("build"):
        assert type(got.rho) is int and got.rho == want.rho
        assert got.stream == want.stream
        assert got.graph.n_vertices == want.graph.n_vertices
        for column in ("src", "dst", "weight"):
            assert (getattr(got.graph, column).tolist()
                    == getattr(want.graph, column).tolist())
    else:
        assert type(got.rho) is int and got == want


@pytest.mark.parametrize("bad, message", [
    (2.5, "counterexample spec field 'rho' must be an integer, got 2.5"),
    (math.nan, "counterexample spec field 'rho' must be an integer, got nan"),
    (0, "rho must be a positive integer"),
])
@pytest.mark.parametrize("name", list(RHO_TAKERS))
def test_rho_must_be_a_positive_whole_number(name, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RHO_TAKERS[name](bad)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0, 0.0, "0.1",
                                     None])
def test_g1_epsilon_must_be_positive_and_finite(epsilon):
    message = f"epsilon must be positive and finite, got {epsilon!r}"
    for build in (build_g1, verify_preemption_counterexample):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(3, epsilon)


def test_instance_topology():
    inst = build_g1(3, 0.5)
    assert inst.graph.n_vertices == 10
    assert inst.stream == tuple(range(1, 10))
    assert 0 not in inst.stream  # the sink never streams
    assert inst.early == (1, 2, 3)
    assert inst.planted_opt == (4, 5, 6)
    assert inst.late == (7, 8, 9)


def test_g1_marginal_schedule():
    rho, eps = 4, 0.25
    inst = build_g1(rho, eps)
    f = make_directed_cut(inst.graph)
    # first wave: unit marginal on arrival against any earlier prefix
    for i, u in enumerate(inst.early):
        prefix = set(inst.early[:i])
        assert abs(f.marginal(u, prefix) - 1.0) <= 1e-12
    # planted optimum: worth rho^2 alone, worthless next to the first wave
    assert abs(f.value(inst.planted_opt) - rho * rho) <= 1e-12
    for u in inst.planted_opt:
        assert abs(f.marginal(u, set(inst.early))) <= 1e-12
    # late wave: constant 2 + eps marginal against any early/late mixture
    mix = set(inst.early[:2]) | set(inst.late[:1])
    for u in inst.late[1:]:
        assert abs(f.marginal(u, mix) - (2 + eps)) <= 1e-12
    assert abs(f.value(inst.late) - (2 + eps) * rho) <= 1e-12


def test_g2_marginal_schedule():
    rho = 4
    inst = build_g2(rho)
    f = make_directed_cut(inst.graph)
    ws = w_sequence(rho)
    assert abs(f.value(inst.planted_opt) - rho * rho) <= 1e-12
    # swapping an optimum element for any first-wave element changes nothing
    early = set(inst.early)
    base = f.value(early)
    for u in inst.planted_opt:
        for v in inst.early:
            swapped = (early - {v}) | {u}
            assert abs(f.value(swapped) - base) <= 1e-12
    assert abs(f.value(inst.late) - sum(ws)) <= 1e-9


def test_verify_g1_reports():
    r = verify_preemption_counterexample(4, 0.01)
    assert r.holds
    assert abs(r.f_S - 8.04) <= 1e-9
    assert abs(r.f_opt - 16.0) <= 1e-9
    assert r.checks["opt_block_untouched"]
    payload = r.as_json()
    assert set(payload) == {"rho", "epsilon", "f_S", "f_opt", "f_union",
                            "bound", "holds"}


def test_verify_g1_single_element():
    r = verify_preemption_counterexample(1, 1.0)
    assert r.holds and abs(r.f_S - 3.0) <= 1e-9


def test_verify_g2_reports():
    r = verify_ratio_swap_counterexample(4)
    assert r.holds
    expected = 8 + 4 * (1.25 ** 4 - 2)
    assert abs(r.f_S - expected) <= 1e-9
    assert r.f_S <= math.e * 4 + 1e-9
    assert r.bound == pytest.approx(math.e / 4 * r.f_union)


def test_each_verifier_runs_its_own_swap_baseline(monkeypatch):
    # both baselines end with the bait block on g2, so the report alone
    # does not tell which one ran
    ran = []
    for name in ("preemption_stream", "ratio_swap_stream"):
        real = getattr(counterexamples, name)
        monkeypatch.setattr(counterexamples, name,
                            lambda *args, real=real, name=name:
                            ran.append(name) or real(*args))
    verify_preemption_counterexample(4)
    verify_ratio_swap_counterexample(4)
    assert ran == ["preemption_stream", "ratio_swap_stream"]


@pytest.mark.parametrize("rho", [64, 128])
def test_verify_g2_holds_at_large_rho(rho):
    r = verify_ratio_swap_counterexample(rho)
    assert r.holds, r.checks
    assert abs(r.f_S - w_sequence_total(rho)) <= 1e-9
    assert r.f_S <= math.e * rho + 1e-9
    assert r.f_union >= rho * rho - 1e-9


def test_verify_g2_requires_rho_at_least_four():
    with pytest.raises(ValueError):
        verify_ratio_swap_counterexample(3)


def test_brute_force_confirms_planted_optimum():
    # needs rho >= 3: at rho = 2 the bait block value (2 + eps) * rho
    # edges out rho^2 and the planted block is not optimal
    for family in ("g1", "g2"):
        for rho in (3, 4, 5):
            assert brute_optimum_matches(family, rho)
