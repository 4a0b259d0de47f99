"""Benchmark harness for the built-in model families.

Timing covers the run loop only; engine construction (pool
materialization, encoding) happens before the clock starts.  Each
measurement does one untimed warm-up run of `WARMUP_STEPS` steps, enough
to warm the interpreter, then `repetitions` timed runs, each on a freshly
built engine, so that no timed step replays a trajectory whose survivor
functions an engine has already cached; the warm-up has an engine of its
own.  The reported row is the median repetition by total time.  Symbolic
rows carry the node counts of the encoded functions, enumerative rows
leave them empty.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import astuple, dataclass
from typing import Optional, Union

from .enumerative import EnumEngine
from .generators import gen_bus, gen_tasks
from .model import SystemModel
from .symbolic import SymbolicEngine

CSV_HEADER = "example,engine,n,m,steps,total_ns,mean_step_ns,fs_nodes,fb_nodes,fc_nodes,fp_nodes,seed"

EXAMPLES = ("bus", "tasks")
ENGINES = ("enum", "symbolic")
WARMUP_STEPS = 200


@dataclass(frozen=True)
class BenchRecord:
    example: str
    engine: str
    n: int
    m: Optional[int]
    steps: int             # steps actually executed (may stop early on deadlock)
    total_ns: int
    mean_step_ns: float
    fs_nodes: Optional[int]
    fb_nodes: Optional[int]
    fc_nodes: Optional[int]
    fp_nodes: Optional[int]
    seed: int

    def csv_row(self) -> str:
        def cell(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        # the fields are declared in CSV_HEADER's column order
        return ",".join(map(cell, astuple(self)))


def make_system(example: str, n: int, m: int = 1) -> SystemModel:
    """The built-in `example` of size n; tasks runs on m processors, bus
    ignores m."""
    if example == "bus":
        return gen_bus(n)
    if example == "tasks":
        return gen_tasks(n, m)
    raise ValueError(f"unknown example {example!r} (expected one of {EXAMPLES})")


def make_engine(system: SystemModel, engine: str, seed: int) -> Union[EnumEngine, SymbolicEngine]:
    if engine == "enum":
        return EnumEngine(system, seed=seed)
    if engine == "symbolic":
        return SymbolicEngine(system, seed=seed)
    raise ValueError(f"unknown engine {engine!r} (expected one of {ENGINES})")


def bench(
    example: str,
    n: int,
    m: int = 1,
    *,
    steps: int,
    seed: int,
    engine: str,
    repetitions: int = 1,
) -> BenchRecord:
    """One benchmark point; returns the median repetition."""
    if steps < 1:
        raise ValueError("steps must be positive")
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    system = make_system(example, n, m)
    make_engine(system, engine, seed).run(WARMUP_STEPS)
    samples: list[tuple[int, int]] = []  # (total_ns, executed)
    for _ in range(repetitions):
        # free the last engine before building the next: a BDD manager
        # holds reference cycles, so only the collector reclaims it
        runner = None
        gc.collect()
        runner = make_engine(system, engine, seed)
        trace = runner.run(steps)
        samples.append((trace.total_ns, len(trace)))
    median_total = statistics.median(t for t, _ in samples)
    total, executed = min(samples, key=lambda te: abs(te[0] - median_total))
    if engine == "symbolic":
        counts = runner.encoding.node_counts()
    else:
        counts = dict.fromkeys(("fs_nodes", "fb_nodes", "fc_nodes", "fp_nodes"))
    return BenchRecord(
        example=example,
        engine=engine,
        n=n,
        m=m if example == "tasks" else None,
        steps=executed,
        total_ns=total,
        mean_step_ns=(total / executed) if executed else 0.0,
        seed=seed,
        **counts,
    )


def write_csv(records: list[BenchRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
