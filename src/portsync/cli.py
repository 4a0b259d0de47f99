"""Command-line interface.

Subcommands:
  run    execute a model for K steps with a chosen engine
  check  compare enumerative and symbolic survivor sets over reachable states
  bench  time a built-in example and append node counts (CSV)
  stats  print encoding node counts for a model file
  gen    write a built-in or random model as a .bip-lite file

Exit codes: 0 success, 1 diagnostics (syntax, validation, usage, a
file that cannot be read or written), 2 deadlock before completing the
requested steps (run only), 3 survivor-set divergence (check only).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import bench as bench_mod
from . import dsl
from .equivalence import check_equivalence
from .generators import RandomBounds, random_system
from .model import SystemModel, Trace
from .symbolic import build

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_DEADLOCK = 2
EXIT_DIVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are diagnostics; keep exit code 2 reserved for deadlock
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_DIAGNOSTICS)


def _at_least(least: int):
    """An argparse type: an integer of at least `least`."""
    def integer(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {text}")
        return int(text)
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="portsync", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="execute a model")
    p_run.add_argument("file")
    p_run.add_argument("--engine", choices=("enum", "symbolic"), default="enum")
    p_run.add_argument("--steps", type=_at_least(0), default=10)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--trace", metavar="OUT.CSV", default=None)

    p_check = sub.add_parser("check", help="cross-engine survivor equivalence")
    p_check.add_argument("file")
    p_check.add_argument("--bound", type=_at_least(1), default=10000)

    p_bench = sub.add_parser("bench", help="time a built-in example")
    p_bench.add_argument("example", choices=bench_mod.EXAMPLES)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--m", type=int, default=1)
    p_bench.add_argument("--engine", choices=("enum", "symbolic", "both"), default="both")
    p_bench.add_argument("--steps", type=int, default=10000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--out", metavar="RESULTS.CSV", required=True)

    p_stats = sub.add_parser("stats", help="encoding node counts")
    p_stats.add_argument("file")

    p_gen = sub.add_parser("gen", help="write a model file")
    p_gen.add_argument("family", choices=(*bench_mod.EXAMPLES, "random"))
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.add_argument("--m", type=int, default=1)
    p_gen.add_argument("--seed", type=_at_least(0), default=0)
    p_gen.add_argument("--max-atoms", type=_at_least(1), default=3)
    p_gen.add_argument("--max-states", type=_at_least(1), default=3)
    p_gen.add_argument("--max-ports", type=_at_least(1), default=2)
    p_gen.add_argument("--max-depth", type=_at_least(0), default=3)
    p_gen.add_argument("--out", metavar="MODEL.BIP-LITE", required=True)
    return parser


def _load(path: str) -> SystemModel:
    try:
        return dsl.load(path)
    except dsl.DslError as exc:
        for d in exc.diagnostics:
            print(f"{path}:{d}", file=sys.stderr)
        raise SystemExit(EXIT_DIAGNOSTICS)


def _format_interaction(a) -> str:
    return " ".join(sorted(a))


def _write_trace(path: str, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,interaction,state\n")
        for i, (a, state) in enumerate(trace.steps, start=1):
            fh.write(f"{i},{_format_interaction(a)},{' '.join(state)}\n")


def _cmd_run(args) -> int:
    system = _load(args.file)
    trace = bench_mod.make_engine(system, args.engine, args.seed).run(args.steps)
    if args.trace:
        _write_trace(args.trace, trace)
    for i, (a, state) in enumerate(trace.steps, start=1):
        print(f"{i}: {_format_interaction(a)} -> ({' '.join(state)})")
    if trace.deadlocked:
        print(f"deadlock after {len(trace)} of {args.steps} steps")
        return EXIT_DEADLOCK
    print(f"completed {len(trace)} steps")
    return EXIT_OK


def _cmd_check(args) -> int:
    system = _load(args.file)
    report = check_equivalence(system, bound=args.bound)
    print(report.summary())
    return EXIT_OK if report.equivalent else EXIT_DIVERGENCE


def _cmd_bench(args) -> int:
    engines = ("enum", "symbolic") if args.engine == "both" else (args.engine,)
    records = []
    for engine in engines:
        rec = bench_mod.bench(
            args.example, args.n, args.m,
            steps=args.steps, seed=args.seed, engine=engine,
            repetitions=args.reps,
        )
        records.append(rec)
        print(f"{args.example} n={args.n} m={rec.m} {engine}: "
              f"{rec.steps} steps, mean {rec.mean_step_ns:.0f} ns/step")
    bench_mod.write_csv(records, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    system = _load(args.file)
    enc = build(system)
    counts, m = enc.node_counts(), enc.manager
    # the pool is f_C's models over the ports, counted without listing one:
    # model text cannot write the constants, so no connector admits the
    # empty interaction
    pool = m.sat_count(enc.connector_fn) >> len(m.variables) - len(system.all_ports)
    print(f"system {system.name}: {len(system.atoms)} atoms, "
          f"{len(system.all_ports)} ports, {pool} pool interactions")
    for key in ("fb_nodes", "fc_nodes", "fs_nodes", "fp_nodes"):
        print(f"{key}={counts[key]}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "random":
        bounds = RandomBounds(args.max_atoms, args.max_states, args.max_ports, args.max_depth)
        system = random_system(args.seed, bounds)
    else:
        system = bench_mod.make_system(args.family, args.n, args.m)
    dsl.save(system, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    handlers = {
        "run": _cmd_run,
        "check": _cmd_check,
        "bench": _cmd_bench,
        "stats": _cmd_stats,
        "gen": _cmd_gen,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # argparse and loader bail-outs
        return exc.code if isinstance(exc.code, int) else EXIT_DIAGNOSTICS
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
