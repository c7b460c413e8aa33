"""Command line entry points.

Subcommands:
  bench run        -- execute an experiment config, emit a results CSV
  bench gen-graph  -- write a seeded random graph as a TSV edge list
  run-stream       -- run one algorithm over a graph file, print a row
  counterexample   -- build and verify an adversarial instance, emit JSON

Exit codes: 0 on success, 1 when a counterexample does not hold, 2 on
malformed input or an objective whose values are not finite (an
overflowing weight sum, say), reported as one ``substream: error:`` line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from . import bench, counterexamples
from .core import NumericError


def _fail(message: str):
    print(f"substream: error: {message}", file=_sys.stderr)
    raise SystemExit(2) from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like every other input error (subcommand
    parsers are built from this class too)."""

    def error(self, message):
        _fail(message)


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: nested too deeply") from None


def _cmd_bench_run(args) -> int:
    cfg = _load_json(args.config)
    rows = bench.run_experiment(cfg, measure_time=not args.no_timing)
    csv_text = bench.rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        _sys.stdout.write(csv_text)
    return 0


def _cmd_gen_graph(args) -> int:
    if args.model == "er":
        if args.p is None:
            raise ValueError("--p is required for the er model")
        graph = bench.gen_erdos_renyi(args.n, args.p, args.seed)
    else:
        if args.kring is None or args.beta is None:
            raise ValueError("--kring and --beta are required for the ws model")
        graph = bench.gen_watts_strogatz(args.n, args.kring, args.beta, args.seed)
    bench.write_edge_list(graph, args.out)
    return 0


def _cmd_run_stream(args) -> int:
    constraint = _load_json(args.constraint)
    cfg = {
        "instance": {"edge_list": args.graph},
        "objective": {"kind": args.objective},
        "constraint": constraint,
        "algorithms": [args.algo],
        "seeds": [args.seed],
        "options": {"stream_order": args.stream_order},
    }
    rows = bench.run_experiment(cfg)
    _sys.stdout.write(bench.rows_to_csv(rows))
    return 0


def _cmd_counterexample(args) -> int:
    if args.family == "g1":
        report = counterexamples.verify_preemption_counterexample(
            args.rho, args.epsilon)
    else:
        report = counterexamples.verify_ratio_swap_counterexample(args.rho)
    payload = json.dumps(report.as_json(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        _sys.stdout.write(payload)
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="substream",
        description="Streaming submodular maximization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    bench_cmd = sub.add_parser("bench", help="benchmark harness")
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser("run", help="run an experiment config")
    run.add_argument("--config", required=True)
    run.add_argument("--out")
    run.add_argument("--no-timing", action="store_true",
                     help="zero the ms column for reproducible output")
    run.set_defaults(func=_cmd_bench_run)

    gen = bench_sub.add_parser("gen-graph", help="generate a random graph")
    gen.add_argument("--model", choices=("er", "ws"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float)
    gen.add_argument("--kring", type=int)
    gen.add_argument("--beta", type=float)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_graph)

    stream = sub.add_parser("run-stream", help="run one algorithm on a graph")
    stream.add_argument("--graph", required=True)
    stream.add_argument("--objective", choices=("cut", "linear"), required=True)
    stream.add_argument("--constraint", required=True,
                        help="JSON file with a constraint spec")
    stream.add_argument("--algo", choices=bench.ALGORITHMS, required=True)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--stream-order", choices=("shuffle", "id"),
                        default="shuffle")
    stream.set_defaults(func=_cmd_run_stream)

    counter = sub.add_parser("counterexample",
                             help="build and verify an adversarial instance")
    counter.add_argument("--family", choices=("g1", "g2"), required=True)
    counter.add_argument("--rho", type=int, required=True)
    counter.add_argument("--epsilon", type=float, default=0.01)
    counter.add_argument("--out")
    counter.set_defaults(func=_cmd_counterexample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, NumericError) as exc:
        _fail(f"missing config key {exc}" if isinstance(exc, KeyError)
              else str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
