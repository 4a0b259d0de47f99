"""The benchmark's own tests: tracing changes nothing, metrics match the contract.

Run from the repository root:

    python3 -m pytest perfbench/test_tracing.py -s

For each workload one episode runs untraced and one traced, from the same
seed; both must fire the identical interaction sequence and reach the
same check verdict.  The tracing overhead is printed as traced minus
untraced `sym.steps_per_s`, the untraced rate averaged over one episode
before and one after the traced one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _traced_episode(wl: run.Workload, text: str) -> tuple[run.Episode, tracing.Tracer]:
    tracer = tracing.Tracer()
    bindings = tracing.program_bindings()
    originals = [vars(owner)[attr] for owner, attr, _, _ in bindings]
    assert tracer.install(bindings) == []
    try:
        episode = run.run_episode(wl, text, SEED, tracer)
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, _, _ in bindings] == originals
    return episode, tracer


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_changes_nothing(name: str) -> None:
    wl = run.WORKLOADS[name]
    text = wl.text()
    plain = run.run_episode(wl, text, SEED)
    traced, tracer = _traced_episode(wl, text)
    plain_again = run.run_episode(wl, text, SEED)  # brackets the traced run against drift

    assert traced.enum.fired == plain.enum.fired
    assert traced.sym.fired == plain.sym.fired
    assert len(plain.sym.fired) == wl.steps
    for report in (plain.report, traced.report):
        assert run.verdict_ok(wl, report), report.summary()

    rss = 1.0
    e2e = run.end_to_end([plain], rss)
    layers = run.per_layer([traced], tracer.spans)
    assert sorted(e2e) == sorted(m["name"] for m in CONTRACT["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in CONTRACT["per_layer"])
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    assert all(unit == units[key] for key, (_, unit) in {**e2e, **layers}.items())

    assert plain_again.sym.fired == plain.sym.fired
    plain_rate = (e2e["sym.steps_per_s"][0] + run.end_to_end([plain_again], rss)["sym.steps_per_s"][0]) / 2
    traced_rate = run.end_to_end([traced], rss)["sym.steps_per_s"][0]
    print(f"\n{name}: sym.steps_per_s untraced {plain_rate:.1f}, traced {traced_rate:.1f}, "
          f"overhead (traced - untraced) {traced_rate - plain_rate:+.1f}/s "
          f"({(traced_rate - plain_rate) / plain_rate:+.1%})")


def test_phase_parts_add_up() -> None:
    spans = [
        ["sym", 0, 100, -1],
        ["symbolic.step", 5, 95, 0],
        ["symbolic.survivor_fn", 10, 60, 1],
        ["bdd.apply_and", 20, 30, 2],
        ["bdd.apply_or", 30, 35, 2],  # no part of its own: unattributed
        ["bdd.pick_sat", 60, 90, 1],
    ]
    sym = tracing.summarize(spans)["sym"]
    assert sym.total_ns == 100
    assert sym.parts_ns == {"symbolic.step_self": 10, "symbolic.survivor_fn": 35,
                            "bdd.apply_and": 10, "bdd.pick_sat": 30}
    assert sym.unattributed_ns == 10 + 5
    assert sym.calls["bdd.apply_and"] == 1


def test_workload_inputs() -> None:
    expected = {"tasks-run": (512, 136), "bus-run": (288, 128), "check-pairs": (256, 68)}
    for name, wl in run.WORKLOADS.items():
        system = run.dsl.parse(wl.text())
        assert (len(system.gamma), len(system.all_ports)) == expected[name]
    pairs = run.dsl.parse(run.WORKLOADS["check-pairs"].text()).priority
    assert len(pairs.pairs) == 224
