"""portsync benchmark: cold set-up, stepping and checking, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload tasks-run --seed 1 --seconds 30 --trace 0

A run is a fixed number of episodes, sized so that the run measures about
`--seconds` seconds on a 2-core x86-64 box with CPython 3.11.  Each
episode works the way a user of the library does, on one model text:

1. set-up: parse the text and construct both engines (validation, pool
   materialisation, symbolic build);
2. run the enumerative and the symbolic engine for the same number of
   steps from the episode's seed, one `step()` at a time, taking turns
   in chunks of `CHUNK` steps (each engine keeps its own trajectory);
3. check: `check_equivalence` on the parsed model, as `portsync check`
   does, which builds its own engines.

Every episode starts from fresh engines, so no timed step replays a
warmed-up trajectory; imports and model-text generation are untimed.  The
loop is closed with a single caller in one process.  After all episodes,
untimed, every engine trace is checked against the reference semantics in
`portsync.model` (a fixed stride of steps) and every check verdict
against the expected one.

Times are CPU times of the benchmark's one thread (`CLOCK`), in which
the program runs, corrected for the speed of the host.  On a shared
2-core box the thread is sometimes not run for up to 14 ms at a time,
which wall time would add to whichever step was running; its CPU time
leaves that out and keeps the program's own work, the collector's
included.  The box also runs the same code up to 1.8x slower for
seconds at a time, for any pure-Python work alike.  So the benchmark
times a fixed loop of its own (`reference_ns`, collector off) before
and after the set-up, after every round of chunks, before and after the
check, and every `SAMPLE_S` during the set-up and the check, and scales
each timed interval by `REF_NS` over the loop's time around it (the
median of the four nearest).  A reported time is thus the CPU time the
interval would take at the speed at which the loop takes `REF_NS`; the
uncorrected CPU times are printed as `#` lines.  The loop does not run
the program, so a change to the program moves only the intervals it
times.

`--trace 0` prints the end-to-end metrics; `--trace 1` is the traced run
(see `tracing.py`): it wraps the program's public functions, records
spans, and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the lines before it, prefixed with `#`, record the
machine and the inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

if not (SRC / "portsync" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: the program's source is missing ({SRC / 'portsync'})")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from portsync import dsl, enumerative, equivalence, model, symbolic  # noqa: E402

import models  # noqa: E402
import tracing  # noqa: E402

if Path(dsl.__file__).resolve().parent != (SRC / "portsync").resolve():
    raise SystemExit(f"perfbench: imported portsync from {dsl.__file__}, not from {SRC}")

VERIFY_PER_TRACE = 25  # reference-checked steps per engine trace
# The engines take turns in chunks of this many steps, so that each
# engine's samples spread over the whole episode: the speed of a shared
# 2-core box can change by half for seconds at a time.
CHUNK = 25
# Nominal time of `reference_ns()`: its time on a 2-core x86-64 box with
# CPython 3.11 at that box's fast speed.  It only sets the scale in which
# corrected times are reported.
REF_NS = 3_000_000
CLOCK = time.thread_time_ns
SAMPLE_S = 0.05  # period of the reference samples during a single long call


@dataclass(frozen=True)
class Workload:
    text: Callable[[], str]
    steps: int            # per engine per episode
    check_bound: int      # `check_equivalence` bound
    check_states: int     # expected states checked
    check_truncated: bool
    episode_s: float      # nominal episode time on the reference box


WORKLOADS = {
    # dense pool of 512, priority-heavy: f_C and f_P conjunctions dominate
    # the symbolic step; about half the steps reach a new global state, so
    # the op cache and node store keep growing
    "tasks-run": Workload(lambda: models.tasks_text(8, 4), steps=500, check_bound=30,
                          check_states=30, check_truncated=True, episode_s=6.5),
    # sparse pool of 288 in 16 independent clusters: restriction and the
    # pick dominate, priority costs almost nothing
    "bus-run": Workload(lambda: models.bus_text(16), steps=2000, check_bound=100,
                        check_states=100, check_truncated=True, episode_s=4.3),
    # explicit priority pairs (no maximal-progress encoding), exhaustive
    # check over every reachable state: model expansion instead of the pick
    "check-pairs": Workload(lambda: models.tasks_pairs_text(8, 2), steps=1000, check_bound=10000,
                            check_states=2537, check_truncated=False, episode_s=7.5),
}


def reference_ns() -> int:
    """Time one pass of a fixed pure-Python loop that probes and fills
    dicts keyed by int tuples, as a BDD apply does.  The collector is off,
    so the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = CLOCK()
        table: dict = {}
        memo: dict = {}
        acc = 0
        for i in range(4000):
            key = (i % 97, (i * 31) % 1013, (i * 17) % 509)
            node = memo.get(key)
            if node is None:
                triple = (key[0], key[1] ^ key[2], key[2])
                node = table.get(triple)
                if node is None:
                    node = table[triple] = len(table)
                memo[key] = node
            acc += node
        return CLOCK() - t0
    finally:
        if enabled:
            gc.enable()


def bracket_ns() -> int:
    """Reference time at one end of a single long call: the median of
    three, so that an interrupt during one of them does not count."""
    return statistics.median(reference_ns() for _ in range(3))


def local_speeds(refs: list[int]) -> list[float]:
    """Correction factor for each gap between consecutive reference times:
    `REF_NS` over the median of the gap's two ends and their outer
    neighbours, so that one reference time stretched by an interrupt
    does not skew it."""
    return [REF_NS / statistics.median(refs[max(0, k - 1):k + 3]) for k in range(len(refs) - 1)]


class Sampler:
    """Times `reference_ns` every `SAMPLE_S` of wall time while a single
    long call (the set-up, the check) runs, from a SIGALRM handler, and
    takes the handler's time out of the call's."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.active = False
        self.ticks: list[tuple[int, int, int]] = []  # (start, duration, reference time)

    def _tick(self, signum, frame) -> None:
        t0 = CLOCK()
        ref = reference_ns()
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        self.ticks.append((t0, CLOCK() - t0, ref))

    def timed(self, call: Callable[[], object], context) -> tuple[object, int, list[int]]:
        """Run `call` inside `context`; return its result, its time without
        the handler's, and the reference times before, during and after it."""
        self.ticks = []
        before = bracket_ns()
        previous = signal.signal(signal.SIGALRM, self._tick) if self.enabled else None
        self.active = self.enabled
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        try:
            with context:
                t0 = CLOCK()
                result = call()
                t1 = CLOCK()
        finally:
            if self.enabled:
                self.active = False
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        # a handler runs to its end before the main code reads the clock
        # again, so a tick that started before t1 lies wholly inside the call
        inside = [tick for tick in self.ticks if tick[0] < t1]
        spent = sum(duration for _, duration, _ in inside)
        return result, t1 - t0 - spent, [before, *(ref for _, _, ref in inside), bracket_ns()]


@dataclass
class EngineRun:
    fired: list = field(default_factory=list)     # (interaction, state) per step
    latencies_ns: list = field(default_factory=list)
    rounds: list = field(default_factory=list)    # (end index into latencies_ns, loop ns) per round
    deadlocked: bool = False

    def advance(self, engine, steps: int) -> None:
        """Step `engine` up to `steps` more times, timing each step."""
        fired, lat = self.fired, self.latencies_ns
        clock = CLOCK
        start = clock()
        for _ in range(steps if not self.deadlocked else 0):
            t0 = clock()
            result = engine.step()
            t1 = clock()
            if result is None:
                self.deadlocked = True
                break
            lat.append(t1 - t0)
            fired.append(result)
        self.rounds.append((len(lat), clock() - start))

    def corrected(self, speeds: list[float]) -> tuple[list[float], float]:
        """Step latencies and loop time, each round scaled by its speed."""
        lat: list[float] = []
        loop = 0.0
        begin = 0
        for (end, loop_ns), factor in zip(self.rounds, speeds, strict=True):
            lat += [x * factor for x in self.latencies_ns[begin:end]]
            loop += loop_ns * factor
            begin = end
        return lat, loop


@dataclass
class Episode:
    seed: int
    system: model.SystemModel
    setup_ns: int                                 # CPU time, uncorrected
    enum: EngineRun
    sym: EngineRun
    check_ns: int                                 # CPU time, uncorrected
    report: equivalence.EquivalenceReport
    wall_s: float
    refs: dict = field(default_factory=dict)      # reference times: setup, rounds, check
    counts: dict = field(default_factory=dict)    # traced run only

    def round_speeds(self) -> list[float]:
        """Round k lies between reference times k and k + 1."""
        return local_speeds(self.refs["rounds"])

    def seconds(self, name: str, correct: bool = True) -> float:
        """The set-up or the check time, scaled by the mean speed over it."""
        raw = getattr(self, f"{name}_ns") / 1e9
        return raw * statistics.fmean(local_speeds(self.refs[name])) if correct else raw


def run_episode(wl: Workload, text: str, seed: int, tracer: Optional[tracing.Tracer] = None) -> Episode:
    def phase(name: str):
        return tracer.phase(name) if tracer is not None else nullcontext()

    def setup():
        system = dsl.parse(text)
        return system, enumerative.EnumEngine(system, seed=seed), symbolic.SymbolicEngine(system, seed=seed)

    # the sampler would add its time to the traced spans
    sampler = Sampler(enabled=tracer is None)
    counts: dict = {}
    refs: dict = {}
    start = time.perf_counter()
    gc.collect()
    (system, enum_engine, sym_engine), setup_ns, refs["setup"] = sampler.timed(setup, phase("setup"))
    mgr = sym_engine.encoding.manager
    if tracer is not None:
        nodes = sym_engine.encoding.node_counts()
        counts.update(nodes_after_build=mgr.total_nodes(), fs_nodes=nodes["fs_nodes"], fp_nodes=nodes["fp_nodes"])
    enum_run, sym_run = EngineRun(), EngineRun()
    refs["rounds"] = rounds = [refs["setup"][-1]]
    for done in range(0, wl.steps, CHUNK):
        for name, engine, engine_run in (("enum", enum_engine, enum_run), ("sym", sym_engine, sym_run)):
            with phase(name):
                engine_run.advance(engine, min(CHUNK, wl.steps - done))
        rounds.append(reference_ns())
    if tracer is not None:
        counts.update(activity_checks=enum_engine.activity_checks, priority_checks=enum_engine.priority_checks,
                      node_growth=mgr.total_nodes() - counts["nodes_after_build"])
    del enum_engine, sym_engine, mgr
    gc.collect()  # drop the engines' BDD store before the check builds its own
    report, check_ns, refs["check"] = sampler.timed(
        lambda: equivalence.check_equivalence(system, bound=wl.check_bound), phase("check"))
    wall_s = time.perf_counter() - start
    return Episode(seed, system, setup_ns, enum_run, sym_run, check_ns, report, wall_s, refs, counts)


def run_workload(wl: Workload, seed: int, seconds: float, tracer: Optional[tracing.Tracer] = None) -> list[Episode]:
    """A fixed number of episodes for `seconds`, so the work does not
    depend on how fast the program is."""
    text = wl.text()
    count = max(1, round(seconds / wl.episode_s))
    return [run_episode(wl, text, seed * 1000 + k, tracer) for k in range(count)]


# -- verification (untimed) ---------------------------------------------


def trace_failures(system: model.SystemModel, steps: int, fired: list) -> int:
    """Steps that did not complete, plus reference-checked steps that fired
    a non-survivor or landed on a state the interaction cannot reach."""
    failures = steps - len(fired)
    states = [system.initial_state()] + [s for _, s in fired]
    stride = max(1, len(fired) // VERIFY_PER_TRACE)
    for i in range(0, len(fired), stride):
        a, nxt = fired[i]
        src = states[i]
        ok = a in model.survivors(system, src)
        if ok:
            try:
                ok = nxt in model.successors(system, src, a)
            except model.NotEnabledError:
                ok = False
        failures += not ok
    return failures


def verdict_ok(wl: Workload, report: equivalence.EquivalenceReport) -> bool:
    return (report.equivalent and report.states_checked == wl.check_states
            and report.truncated == wl.check_truncated)


def verify(wl: Workload, episodes: list[Episode]) -> tuple[int, int]:
    attempted = failed = 0
    for ep in episodes:
        for run in (ep.enum, ep.sym):
            attempted += wl.steps
            failed += trace_failures(ep.system, wl.steps, run.fired)
        attempted += 1
        failed += not verdict_ok(wl, ep.report)
    return attempted, failed


# -- metrics -------------------------------------------------------------


def _p(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _latencies(runs: list[EngineRun]) -> list[int]:
    return sorted(x for r in runs for x in r.latencies_ns)


def run_steps(episodes: list[Episode], key: str, correct: bool = True) -> tuple[list[float], float]:
    """One engine's step latencies over the run, sorted, and its total loop
    time, host-speed corrected unless `correct` is off."""
    lat: list[float] = []
    loop_ns = 0.0
    for e in episodes:
        run = getattr(e, key)
        episode_lat, loop = run.corrected(e.round_speeds() if correct else [1.0] * len(run.rounds))
        lat += episode_lat
        loop_ns += loop
    lat.sort()
    return lat, loop_ns


def end_to_end(episodes: list[Episode], peak_rss_mb: float, correct: bool = True) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, host-speed corrected unless `correct` is off."""
    out: dict[str, tuple[float, str]] = {"setup_s": (statistics.median(e.seconds("setup", correct) for e in episodes), "s")}
    for key in ("sym", "enum"):
        lat, loop_ns = run_steps(episodes, key, correct)
        out[f"{key}.steps_per_s"] = (len(lat) / (loop_ns / 1e9), "1/s")
        # The tail is p95, not p99.  On tasks-run the top 1% of steps are
        # those that grow the op cache's and node store's dicts; their page
        # faults and memory traffic follow the host's memory load, which the
        # reference loop does not track, and p99 over five episodes moved
        # by up to 12% between stretches of one session (p95: 5%).  With
        # run_seconds 30 every engine makes at least 2500 steps, so 125 or
        # more samples lie beyond p95.  p99 is printed as a `#` line.
        out[f"{key}.step_us.p95"] = (_p(lat, 0.95) / 1e3, "us")
        if key == "enum":
            # The symbolic median is not gated: on tasks-run about half the
            # steps reach a new state (~10 ms) and the rest hit the op cache
            # (~1 ms), so the median falls in the gap between the two and
            # moves by a fifth between seeds.  The traced run reports it
            # per layer.
            out["enum.step_us.p50"] = (_p(lat, 0.5) / 1e3, "us")
    out["check_s"] = (statistics.median(e.seconds("check", correct) for e in episodes), "s")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def per_layer(episodes: list[Episode], spans: list[list]) -> dict[str, tuple[float, str]]:
    phases = tracing.summarize(spans)
    setups = len(episodes)
    enum_steps = sum(len(e.enum.fired) for e in episodes)
    sym_steps = sum(len(e.sym.fired) for e in episodes)
    states = sum(e.report.states_checked for e in episodes)
    out: dict[str, tuple[float, str]] = {}

    def put(phase: str, per: int, scale: float, unit: str) -> None:
        summary = phases[phase]
        out[f"{phase}.total_{unit}"] = (summary.total_ns / per / scale, unit)
        for part in dict.fromkeys(p for p, _, _ in tracing.PHASE_PARTS[phase]):
            out[f"{part}_{unit}"] = (summary.parts_ns.get(part, 0) / per / scale, unit)
        out[f"{phase}.unattributed_{unit}"] = (summary.unattributed_ns / per / scale, unit)

    setup, sym, check = phases["setup"], phases["sym"], phases["check"]
    put("setup", setups, 1e6, "ms")
    out["symbolic.build_ms"] = (setup.inclusive_ns.get("symbolic.build", 0) / setups / 1e6, "ms")
    for key in ("nodes_after_build", "fs_nodes", "fp_nodes"):
        out[f"bdd.{key}"] = (statistics.median(e.counts[key] for e in episodes), "count")

    put("enum", enum_steps, 1e3, "us")
    out["enumerative.activity_checks_per_step"] = (sum(e.counts["activity_checks"] for e in episodes) / enum_steps, "count")
    out["enumerative.priority_checks_per_step"] = (sum(e.counts["priority_checks"] for e in episodes) / enum_steps, "count")
    out["enumerative.fired_distinct"] = (len({a for a, _ in episodes[0].enum.fired}), "count")

    put("sym", sym_steps, 1e3, "us")
    out["sym.step_us.p50"] = (statistics.median(_latencies([e.sym for e in episodes])) / 1e3, "us")
    for name in ("bdd.apply_and", "bdd.restrict_many"):
        out[f"{name}_calls"] = (sym.calls.get(name, 0) / sym_steps, "count")
    out["bdd.nodes_per_kstep"] = (sum(e.counts["node_growth"] for e in episodes) / sym_steps * 1e3, "count")
    out["symbolic.fired_distinct"] = (len({a for a, _ in episodes[0].sym.fired}), "count")

    put("check", states, 1e3, "us")
    out["check.symbolic.survivors_us"] = (check.inclusive_ns.get("symbolic.survivors", 0) / states / 1e3, "us")
    out["check.states"] = (episodes[0].report.states_checked, "count")
    return out


# -- reporting -----------------------------------------------------------


def machine() -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "ram_gb": round(ram / 2**30, 1),
            "python": platform.python_version(), "machine": platform.machine()}


def inputs(name: str, wl: Workload, seed: int, episodes: list[Episode]) -> dict:
    system = episodes[0].system
    return {"workload": name, "seed": seed, "episodes": len(episodes), "steps_per_engine": wl.steps,
            "pool": len(system.gamma), "ports": len(system.all_ports), "atoms": len(system.atoms),
            "check.states": episodes[0].report.states_checked, "check.bound": wl.check_bound}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        missing = tracer.install(tracing.program_bindings())
        for name in missing:
            print(f"# warning: no binding {name} to trace", file=sys.stderr)
    try:
        episodes = run_workload(wl, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = verify(wl, episodes)
    if tracer is None:
        metrics = end_to_end(episodes, peak_rss_mb)
    else:
        metrics = per_layer(episodes, tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    print(f"# machine {json.dumps(machine())}")
    print(f"# inputs {json.dumps(inputs(args.workload, wl, args.seed, episodes))}")
    samples = sum(len(e.sym.fired) for e in episodes), sum(len(e.enum.fired) for e in episodes)
    print(f"# step samples: sym {samples[0]}, enum {samples[1]}; set-up and check samples: {len(episodes)}")
    rows = (f"{e.wall_s:.2f}/{e.seconds('setup', False):.3f}/{e.seconds('check', False):.2f}" for e in episodes)
    print(f"# episode seconds (wall, set-up CPU, check CPU; uncorrected): {' '.join(rows)}")
    if tracer is None:
        sym_lat, enum_lat = run_steps(episodes, "sym")[0], run_steps(episodes, "enum")[0]
        print(f"# not gated: sym.step_us.p50 {_p(sym_lat, 0.5) / 1e3} us, sym.step_us.p99 {_p(sym_lat, 0.99) / 1e3} us, "
              f"enum.step_us.p99 {_p(enum_lat, 0.99) / 1e3} us")
    print(f"# enumerative.fired_distinct {len({a for a, _ in episodes[0].enum.fired})}, "
          f"symbolic.fired_distinct {len({a for a, _ in episodes[0].sym.fired})} (first episode)")
    speeds = [f for e in episodes for f in e.round_speeds()]
    print(f"# host speed factor per round: median {statistics.median(speeds):.3f}, "
          f"min {min(speeds):.3f}, max {max(speeds):.3f} (REF_NS {REF_NS} ns)")
    raw = end_to_end(episodes, peak_rss_mb, correct=False) if tracer is None else {}
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:>16.6f} {unit}" + (f"  (uncorrected {raw[name][0]:.6f})" if name in raw else ""))
    print(f"# fail_rate {failed / attempted} ({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
