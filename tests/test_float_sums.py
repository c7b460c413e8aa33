"""Results must not depend on the Python version's built-in ``sum``.

From CPython 3.12 on, ``sum`` compensates float rounding (Neumaier
summation), so a value, weight or cost that went through it would differ
in its last bits between 3.11 and 3.12.  The package adds such floats
left to right (``core._running_sum``).  These tests run the golden
matrices, g2's bait weights and cost normalization with ``builtins.sum``
replaced by a Python copy of 3.12's loop: any site that still calls
``sum`` on floats that reach a result shows up as a diff, on any
interpreter.
"""

import builtins
import json
import math
import random
import shutil
import subprocess
import sys

import pytest

from substream.bench import normalize_costs
from substream.core import _running_sum
from substream.counterexamples import w_sequence

from test_golden_csv import DATA, MATRICES, golden_text


def compensated_sum(iterable, /, start=0):
    """A copy of CPython 3.12's built-in ``sum``: exact ints first, then
    floats with a Neumaier compensation term, then plain ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) not in (int, bool):
                total = total + item
                break
            total += item
        else:
            return total
    if type(total) is float:
        f, c = total, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                if abs(f) >= abs(item):
                    c += (f - t) + item
                else:
                    c += (item - t) + f
                f = t
            elif type(item) in (int, bool) and -2**63 <= item < 2**63:
                f += float(item)
            else:
                total = (f + c if c and math.isfinite(c) else f) + item
                break
        else:
            return f + c if c and math.isfinite(c) else f
    for item in items:
        total = total + item
    return total


def _float_lists():
    rng = random.Random(12)
    lists = [[], [-0.0], [1e16, 1.0, -1e16], [0.1] * 10, [1e308, 1e308],
             [1e308, 1e308, -1e308], [math.inf, 1.0], [-math.inf, 2.5, 1e300],
             [2.0 ** -1074, 1.0, -1.0]]
    for _ in range(400):
        scale = rng.randint(-30, 30)
        lists.append([rng.uniform(-1.0, 1.0) * 10.0 ** (scale + rng.randint(-8, 8))
                      for _ in range(rng.randint(1, 40))])
    return lists


def test_the_compensated_copy_matches_python_312():
    lists = _float_lists()
    mine = [repr(compensated_sum(xs)) for xs in lists]
    if sys.version_info >= (3, 12):
        assert mine == [repr(sum(xs)) for xs in lists]
        return
    exe = shutil.which("python3.12")
    script = ("import json, sys; "
              "print(json.dumps([repr(sum(xs)) for xs in json.load(sys.stdin)]))")
    run = exe and subprocess.run([exe, "-c", script], input=json.dumps(lists),
                                 capture_output=True, text=True, timeout=60)
    if not run or run.returncode != 0:
        pytest.skip("no python3.12 interpreter runs here")
    assert mine == json.loads(run.stdout)


def test_the_compensated_copy_differs_from_a_left_to_right_sum():
    # without this the golden runs below would prove nothing
    assert compensated_sum([1e16, 1.0, 1.0]) == 1e16 + 2.0
    assert _running_sum([1e16, 1.0, 1.0]) == 1e16


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_golden_csv_is_byte_identical_under_a_compensated_sum(monkeypatch,
                                                              name):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert (golden_text(MATRICES[name])
            == (DATA / f"golden_{name}.csv").read_text())


@pytest.mark.parametrize("compute", [
    lambda: [w_sequence(rho) for rho in range(2, 40)],
    # 0.1 ten times is 1.0 under a compensated sum, 1 - 2**-53 left to right
    lambda: [normalize_costs([0.1] * 10, mode, 9)
             for mode in ("sum_vertices", "mean_tenth")],
], ids=["g2-bait-weights", "normalize-costs"])
def test_sums_outside_the_golden_matrices_are_left_to_right(monkeypatch,
                                                            compute):
    left_to_right = compute()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert compute() == left_to_right
