"""Mutation checks: each mutant breaks one check in ``src/substream`` and
names the tests that must catch it.

A mutant is a file under ``src/substream``, an exact source snippet that
must occur in it exactly once, the snippet's replacement, and the ids of
the tests that must fail.  An id may name one test or a whole (for
example parametrized) test function; it kills the mutant when pytest,
run on that id alone, exits 1 (some selected test failed).

For each mutant the runner copies ``src/`` and ``tests/`` (and
``pyproject.toml``, for the pytest settings) to a temporary directory,
since ``tests/conftest.py`` puts the ``src`` next to it first on
``sys.path``, applies the mutant to the copy and runs the named tests
there.  Before any mutant it runs every named test on an unmutated copy,
where pytest must exit 0.  It exits 1 when that baseline run fails, a
snippet does not match exactly once, or pytest exits with anything but
1 on a killer (0: the mutant survives).  A pytest run that takes longer
than ``TIMEOUT_S`` is killed and reported, never counted as a kill, so
a mutant that sends a test into an endless loop cannot hang the run.
It needs only the standard library and pytest.

Run from anywhere::

    python tests/mutants.py [NAME...]

With names, only those mutants run (their killers' baseline run first);
an unknown name exits 2 and lists the known ones.  Without, all run.

A change that rewrites mutated code updates the snippet with it; the
file name stays outside pytest's default ``test_*.py`` pattern, so the
tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the limit on one pytest run, start-up included: the slowest killer
# takes about 2.5 s alone and the baseline run of all of them about 6 s,
# so a run this long was sent into a loop by its mutant
TIMEOUT_S = 60


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/substream
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # test ids, relative to the repository root


MUTANTS = [
    Mutant(
        "cascade-skips-independence",
        "streaming.py",
        "        if not sys.is_independent(outcome.solution):\n"
        "            raise ContractViolationError(",
        "        if False:\n"
        "            raise ContractViolationError(",
        ("tests/test_streaming.py::test_cascade_rejects_a_dependent_solution",)),
    Mutant(
        "audit-skips-independence",
        "streaming.py",
        "    if not component.sys.is_independent(outcome.solution):",
        "    if False:",
        ("tests/test_streaming.py"
         "::test_contract_audit_flags_a_dependent_solution",)),
    Mutant(
        "cut-graph-names-the-last-bad-edge",
        "objectives.py",
        "        triples = [_check_edge(n, e) for e in edges]",
        "        triples = [_check_edge(n, e) for e in list(edges)[::-1]][::-1]",
        ("tests/test_objectives.py::test_cut_graph_names_the_first_bad_edge",)),
    Mutant(
        "cascade-takes-copies-over-other-inputs",
        "streaming.py",
        "    if any(copy.sys is not sys or copy.f is not f for copy in chain):",
        "    if False:",
        ("tests/test_streaming.py"
         "::test_cascade_rejects_copies_over_different_inputs",)),
    Mutant(
        "from-arrays-skips-its-edge-check",
        "objectives.py",
        "        if bad.any():",
        "        if False:",
        ("tests/test_objectives.py"
         "::test_from_arrays_names_the_first_bad_edge",)),
    Mutant(
        "no-bound-above-2**1023",
        "streaming.py",
        "    if m > 2.0 ** 1023:",
        "    if m > math.inf:",
        ("tests/test_bench.py::test_every_threshold_algorithm_raises_above_"
         "the_largest_guess[threshold_sieve]",
         "tests/test_bench.py::test_every_threshold_algorithm_raises_above_"
         "the_largest_guess[auto_sieve]")),
    Mutant(
        "empty-edge-list-runs",
        "bench.py",
        "        if mapping:\n            return graph\n",
        "        if True:\n            return graph\n",
        ("tests/test_cli.py"
         "::test_an_edge_list_without_edge_lines_fails_cleanly[empty]",
         "tests/test_cli.py"
         "::test_an_edge_list_without_edge_lines_fails_cleanly[comments-only]")),
    Mutant(
        "w-sequence-drops-its-running-total",
        "counterexamples.py",
        "        total += ws[-1]\n",
        "",
        ("tests/test_counterexamples.py"
         "::test_w_sequence_keeps_the_bits_of_the_quadratic_recurrence",)),
    Mutant(
        "dense-ids-from-one",
        "core.py",
        "    if set(table) != set(range(n)):",
        "    if set(table) != set(range(1, n + 1)):",
        ("tests/test_objectives.py::test_a_weight_map_must_be_keyed_from_zero",
         "tests/test_constraints.py::test_a_cost_map_must_be_keyed_from_zero",
         "tests/test_objectives.py::test_data_file_ids_must_run_from_zero")),
    Mutant(
        "an-int-is-a-path",
        "bench.py",
        "    if isinstance(value, (str, os.PathLike)):",
        "    if isinstance(value, (str, os.PathLike, int)):",
        ("tests/test_bench.py::test_build_cell_rejects_a_file_field_that_is_"
         "not_a_path[edge_list-int]",
         "tests/test_bench.py::test_build_cell_rejects_a_file_field_that_is_"
         "not_a_path[features-int]")),
    Mutant(
        "leaf-offset-drops-the-part-index",
        "bench.py",
        "        yield from _leaves(part, offset + i)",
        "        yield from _leaves(part, offset)",
        ("tests/test_bench.py"
         "::test_a_nested_random_knapsack_draws_from_its_offset_cost_seed",)),
    Mutant(
        "planarity-takes-a-parallel-edge",
        "constraints.py",
        "    _check(edges)  # rejects a parallel edge",
        "    pass",
        ("tests/test_constraints.py"
         "::test_planarity_system_rejects_a_parallel_edge",)),
    Mutant(
        "modular-value-by-builtin-sum",
        "objectives.py",
        "        return _running_sum(map(w.__getitem__, ids))",
        "        return sum(map(w.__getitem__, ids))",
        ("tests/test_float_sums.py::test_golden_csv_is_byte_identical_under_"
         "a_compensated_sum[nis]",)),
    Mutant(
        "cut-out-weights-by-builtin-sum",
        "objectives.py",
        "    out_total = [_running_sum(adj.values()) for adj in out_adj]",
        "    out_total = [sum(adj.values()) for adj in out_adj]",
        ("tests/test_float_sums.py::test_golden_csv_is_byte_identical_under_"
         "a_compensated_sum[nis]",)),
    Mutant(
        "split-gives-the-element-to-the-whole-group",
        "streaming.py",
        "                self._split(group, lo - first, hi - first + 1)",
        "                lo, hi = first, last",
        ("tests/test_window_groups.py"
         "::test_grouped_window_matches_the_per_copy_window",)),
    Mutant(
        "guess-split-gives-the-element-to-the-whole-group",
        "baselines.py",
        "                self._split(group, 0, k)",
        "                k = len(keys)",
        ("tests/test_guess_groups.py"
         "::test_a_partial_take_splits_the_group_and_replays_the_part_above",)),
    Mutant(
        "replay-out-of-member-order",
        "streaming.py",
        "        for x in group.gains.members:",
        "        for x in reversed(group.gains.members):",
        ("tests/test_window_groups.py"
         "::test_grouped_window_matches_the_per_copy_window",
         "tests/test_guess_groups.py"
         "::test_grouped_guesses_match_the_per_guess_streamer")),
    Mutant(
        "new-top-keys-join-a-non-empty-top-group",
        "streaming.py",
        "        if groups and not groups[-1].gains.members:",
        "        if groups:",
        ("tests/test_streaming.py::test_new_top_exponents_join_the_top_"
         "group_only_while_it_holds_nothing",
         "tests/test_guess_groups.py::test_new_guesses_join_the_top_group_"
         "only_while_it_holds_nothing")),
    Mutant(
        "partial-drop-evicts-the-members",
        "streaming.py",
        "                del keys[:cut]\n",
        "                del keys[:cut]\n"
        "                evicted += members\n",
        ("tests/test_streaming.py"
         "::test_contract_audit_over_every_component[AutoThresholdSieve]",
         "tests/test_guess_groups.py"
         "::test_a_partial_take_splits_the_group_and_replays_the_part_above")),
    Mutant(
        "drop-ignores-the-base",
        "streaming.py",
        "                self.base, *(later.gains.members for later in groups)])",
        "                *(later.gains.members for later in groups)])",
        ("tests/test_reference_auto_sieve.py"
         "::test_auto_sieve_matches_reference_at_every_step",)),
    Mutant(
        "cut-add-skips-in-edges",
        "objectives.py",
        "        for v, w in in_u.items():\n"
        "            gains[v] -= w\n",
        "",
        ("tests/test_baselines.py::test_preemption_swap_trace_on_g1",)),
    Mutant(
        "node-masks-without-their-own-bit",
        "constraints.py",
        "    masks = [sum(map(bits.__getitem__, a)) | bits[u] for u, a in enumerate(adj)]",
        "    masks = [sum(map(bits.__getitem__, a)) for u, a in enumerate(adj)]",
        ("tests/test_bench.py"
         "::test_oracle_calls_equal_an_independent_recount[cut]",)),
    Mutant(
        "fill-take-leaves-ever-held",
        "baselines.py",
        "        self.ever_held.add(u)\n",
        "",
        ("tests/test_baselines.py"
         "::test_preemption_short_stream_behaves_like_filtered_greedy",)),
    Mutant(
        "band-off-by-one-at-a-power-of-two",
        "streaming.py",
        "    return math.frexp(ratio)[1] - 1",
        "    return math.frexp(math.nextafter(ratio, 0.0))[1] - 1",
        ("tests/test_streaming.py"
         "::test_levels_and_guess_exponents_at_powers_of_two",)),
    Mutant(
        "band-top-without-its-plus-two",
        "streaming.py",
        "    return ((k * base_size) ** 2).bit_length() + 2",
        "    return ((k * base_size) ** 2).bit_length()",
        ("tests/test_streaming.py"
         "::test_integer_band_rules_at_powers_of_two",)),
    Mutant(
        "level-without-tau",
        "streaming.py",
        "            level = _level(tau / gain)",
        "            level = _level(1.0 / gain)",
        ("tests/test_reference_sieve.py::test_fixed_sieve_matches_reference",)),
    Mutant(
        "adaptive-base-growth-keeps-ell",
        "streaming.py",
        "        self.ell = band_top(self.k, len(self.base))\n"
        "        return True, [], math.inf",
        "        return True, [], math.inf",
        ("tests/test_streaming.py::test_adaptive_band_growth_examples",)),
    Mutant(
        "spec-int-takes-strings",
        "core.py",
        "    if isinstance(value, numbers.Integral) or (",
        "    if isinstance(value, (numbers.Integral, str, bytes)) or (",
        ("tests/test_constraints.py"
         "::test_make_system_rejects_non_integer_field[n-4]",
         "tests/test_objectives.py"
         "::test_cut_graph_names_the_first_bad_edge[string-endpoint]")),
    Mutant(
        "cli-lets-an-overflow-through",
        "cli.py",
        "    except (OSError, ValueError, KeyError, NumericError) as exc:",
        "    except (OSError, ValueError, KeyError) as exc:",
        ("tests/test_cli.py::test_an_overflowing_objective_fails_cleanly",)),
    Mutant(
        "base-add-does-not-move-the-window",
        "streaming.py",
        "            self._base.add(u)\n            moved = True\n",
        "            self._base.add(u)\n",
        ("tests/test_streaming.py::test_auto_sieve_window_example",)),
    Mutant(
        "knapsack-budget-by-float",
        "constraints.py",
        '    budget = _spec_float("knapsack", "budget", budget)',
        "    budget = float(budget)",
        ("tests/test_constraints.py"
         "::test_make_system_rejects_a_budget_that_is_no_finite_number",)),
    Mutant(
        "cli-lets-deep-json-through",
        "cli.py",
        "        except RecursionError:",
        "        except ZeroDivisionError:",
        ("tests/test_cli.py"
         "::test_bench_run_rejects_a_config_nested_too_deeply",)),
    Mutant(
        "reach-drops-the-group-at-its-bound",
        "streaming.py",
        "            if group.keys[0] > top:",
        "            if group.keys[0] >= top:",
        ("tests/test_reach.py::test_a_window_copy_takes_a_gain_a_few_ulps_"
         "above_the_singleton",)),
    Mutant(
        "gain-cap-without-its-margin",
        "streaming.py",
        "        return value, value + EPS * value + EPS",
        "        return value, value",
        ("tests/test_reach.py::test_a_guess_takes_a_gain_a_few_ulps_above_"
         "the_singleton",
         "tests/test_reach.py::test_a_window_copy_takes_a_gain_a_few_ulps_"
         "above_the_singleton")),
    Mutant(
        "infeasible-singleton-reaches-every-group",
        "streaming.py",
        "            return -math.inf, -math.inf",
        "            return -math.inf, math.inf",
        ("tests/test_reach.py::test_an_arrival_with_an_infeasible_singleton_"
         "asks_no_gain",)),
    Mutant(
        "facility-table-without-its-divisor",
        "objectives.py",
        "table_fn=lambda: (cols.sum(axis=1) / divisor).tolist())",
        "table_fn=lambda: cols.sum(axis=1).tolist())",
        ("tests/test_core.py"
         "::test_singleton_tables_keep_the_bits_of_fn[facility-1]",)),
    Mutant(
        "dispersion-table-without-the-diagonal",
        "objectives.py",
        "table_fn=lambda: (row_sums - m.diagonal()).tolist())",
        "table_fn=lambda: row_sums.tolist())",
        ("tests/test_core.py"
         "::test_singleton_tables_keep_the_bits_of_fn[dispersion-1]",)),
    Mutant(
        "modular-table-keeps-negative-zero",
        "objectives.py",
        "table_fn=lambda: [0.0 + x for x in w])",
        "table_fn=lambda: [x for x in w])",
        ("tests/test_core.py"
         "::test_singleton_tables_keep_the_bits_of_fn[modular-1]",)),
    Mutant(
        "table-singleton-skips-the-finite-check",
        "core.py",
        "            self._singletons[u] = val = _checked(self._table[u])",
        "            self._singletons[u] = val = self._table[u]",
        ("tests/test_core.py"
         "::test_a_table_singleton_keeps_the_checks_of_fn[table]",)),
    Mutant(
        "facility-batch-skips-the-finite-check",
        "objectives.py",
        "        if not math.isfinite(sum(out)):\n"
        "            return super().gains_of(u, states)",
        "        if False:\n"
        "            return super().gains_of(u, states)",
        ("tests/test_gain_state.py"
         "::test_batched_gains_raise_on_a_non_finite_facility_gain",)),
    Mutant(
        "facility-batch-skips-the-member-check",
        "objectives.py",
        "        if not 0 <= u < f.n or any([u in s.members for s in states]):",
        "        if not 0 <= u < f.n:",
        ("tests/test_gain_state.py"
         "::test_batched_gains_raise_what_the_first_failing_state_raises",)),
    Mutant(
        "planarity-bridge-skips-the-reroot",
        "constraints.py",
        "        if b in vb:  # reverse the pointers along b's path to its root",
        "        if False:",
        ("tests/test_constraints.py"
         "::test_planarity_forest_follows_block_chains_and_cacti",)),
    Mutant(
        "planarity-path-drops-the-top-block",
        "constraints.py",
        "        up_a.append(last)  # it turns inside the lowest common block\n",
        "",
        ("tests/test_constraints.py"
         "::test_planarity_forest_follows_block_chains_and_cacti",)),
    Mutant(
        "planarity-merge-keeps-a-stale-head",
        "constraints.py",
        "        head[keep] = top\n",
        "",
        ("tests/test_constraints.py"
         "::test_planarity_forest_follows_block_chains_and_cacti",)),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, ids: list[str]) -> int | None:
    """pytest's exit code for the tests ``ids`` run in ``tree``, or None
    when it runs longer than ``TIMEOUT_S`` and is killed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                               "no:cacheprovider", *ids],
                              cwd=tree, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _exits(code: int | None) -> str:
    return (f"runs over the {TIMEOUT_S} s limit" if code is None
            else f"exits {code}")


def run(mutants: list[Mutant]) -> list[str]:
    """Every problem found, as one line each; empty when all is well."""
    ids = sorted({t for m in mutants for t in m.killers})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        code = _pytest(tree, ids)
    if code != 0:
        return [f"baseline: pytest {_exits(code)} on the named tests "
                "without a mutant"]
    problems: list[str] = []
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy_tree(tree)
            target = tree / "src" / "substream" / m.path
            text = target.read_text()
            count = text.count(m.snippet)
            if count != 1:
                problems.append(f"{m.name}: snippet matches {count} times "
                                f"in {m.path}")
                continue
            target.write_text(text.replace(m.snippet, m.replacement))
            codes = {t: _pytest(tree, [t]) for t in m.killers}
        killed = all(code == 1 for code in codes.values())
        print(f"{m.name}: {'killed' if killed else 'not killed'}", flush=True)
        for t, code in codes.items():
            if code == 0:
                problems.append(f"{m.name}: survives {t}")
            elif code != 1:
                problems.append(f"{m.name}: pytest {_exits(code)} on {t}")
    return problems


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}\nknown mutants:\n  "
              + "\n  ".join(known), file=sys.stderr)
        return 2
    chosen = [known[name] for name in dict.fromkeys(names)] or MUTANTS
    problems = run(chosen)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
