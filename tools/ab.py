"""In-process A/B timing of two trees' engines, alternating in one process.

Run from the repository root:

    python tools/ab.py BASE CHANGE [--rounds N]

BASE and CHANGE are each a directory or a git revision of this
repository, copied as `tools/pair.py` copies them.  Each side's
`src/portsync` is imported under its own package name in this one
process, so both sides share the interpreter, the heap and the host's
load at each moment, and alternating between them resolves a few per
cent where alternating processes swings far more.

The models are the benchmark's own text (`perfbench/models.py` of this
tree), parsed by each side.  Measures, each timed once per side per
round with the collector off, the side that goes first alternating from
round to round:

- `sym_step_us` / `enum_step_us` on bus16, tasks8x4 and bus128: the
  mean time per step of a warm run, the least of `REPEATS` runs, of an
  engine parsed, built and warmed up afresh in each round (seeded by
  the round), so that no one layout of its objects in memory holds
  for every round;
- `build_ms` on the same three models: one `symbolic.build` of a model
  parsed afresh, the parse untimed;
- `check_ms` on bus16 to bound 100, tasks8x4 to bound 30 and the
  explicit pairs of tasks 8x2 exhaustively: one `check_equivalence` of
  a model parsed afresh, after one untimed check per side.

It prints one JSON object: per measure each side's median and
quartiles over the rounds and the change's paired ratios to the base,
with their median and the rounds in which the change was faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pair import ROOT, describe, materialize  # noqa: E402

REPEATS = 3
STEPS = {"sym": 3000, "enum": 300}
STEPPED = {"bus16": ("bus_text", 16), "tasks8x4": ("tasks_text", 8, 4), "bus128": ("bus_text", 128)}
CHECKED = {"bus16@100": (("bus_text", 16), 100), "tasks8x4@30": (("tasks_text", 8, 4), 30),
           "tasks8x2-pairs": (("tasks_pairs_text", 8, 2), 10000)}


def load(name: str, src: Path):
    """The package at `src/portsync`, imported as `name` with its modules."""
    spec = importlib.util.spec_from_file_location(name, src / "portsync" / "__init__.py",
                                                  submodule_search_locations=[str(src / "portsync")])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def models():
    spec = importlib.util.spec_from_file_location("ab_models", ROOT / "perfbench" / "models.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed_ns(call) -> int:
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        call()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def stepped(engine, parse, text: str, n: int):
    """The warm step's µs of a fresh engine of the model `text`, by seed."""
    def measure(seed: int) -> float:
        eng = engine(parse(text), seed=seed)
        eng.run(10 * n)  # fills the class tables and the caches
        return min(timed_ns(lambda: eng.run(n)) for _ in range(REPEATS)) / n / 1e3
    return measure


def built(build, parse, text: str):
    """The ms of one `build` of the model `text` parsed afresh, the parse
    untimed; the seed is unused."""
    def measure(seed: int) -> float:
        system = parse(text)
        return timed_ns(lambda: build(system)) / 1e6
    return measure


def checked(check, parse, text: str, bound: int):
    """The ms of one `check` of the model `text` parsed afresh, after one
    untimed check; the seed is unused."""
    check(parse(text), bound)

    def measure(seed: int) -> float:
        system = parse(text)
        return timed_ns(lambda: check(system, bound)) / 1e6
    return measure


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=12)
    args = ap.parse_args(argv)
    texts = models()
    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, spec in (("base", args.base), ("change", args.change)):
            materialize(spec, Path(tmp) / side)
            pkg = load(f"portsync_{side}", Path(tmp) / side / "src")
            sides[side] = {m: importlib.import_module(f"{pkg.__name__}.{m}")
                           for m in ("dsl", "symbolic", "enumerative", "equivalence")}

    measures: dict[str, dict] = {}
    for side, mods in sides.items():
        parse = mods["dsl"].parse
        for model, (fn, *size) in STEPPED.items():
            text = getattr(texts, fn)(*size)
            for kind, engine in (("sym", mods["symbolic"].SymbolicEngine), ("enum", mods["enumerative"].EnumEngine)):
                measures.setdefault(f"{kind}_step_us {model}", {})[side] = stepped(engine, parse, text, STEPS[kind])
            measures.setdefault(f"build_ms {model}", {})[side] = built(mods["symbolic"].build, parse, text)
        for name, ((fn, *size), bound) in CHECKED.items():
            measures.setdefault(f"check_ms {name}", {})[side] = \
                checked(mods["equivalence"].check_equivalence, parse, getattr(texts, fn)(*size), bound)
    values = {name: {"base": [], "change": []} for name in measures}
    for r in range(args.rounds):
        print(f"ab: round {r + 1}/{args.rounds}", file=sys.stderr)
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for name, by_side in measures.items():
            for side in order:
                values[name][side].append(by_side[side](r + 1))
    out = {"base": describe(args.base), "change": describe(args.change), "rounds": args.rounds,
           "python": sys.version.split()[0], "measures": {}}
    for name, v in values.items():
        ratios = [c / b for b, c in zip(v["base"], v["change"])]
        out["measures"][name] = {
            "base": {"median": statistics.median(v["base"]), "quartiles": quartiles(v["base"])},
            "change": {"median": statistics.median(v["change"]), "quartiles": quartiles(v["change"])},
            "ratio_median": statistics.median(ratios), "change_faster": sum(x < 1 for x in ratios),
            "ratios": [round(x, 4) for x in ratios]}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
