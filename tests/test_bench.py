"""Benchmark records and the CSV contract."""

from dataclasses import fields

import pytest

from portsync.bench import (
    CSV_HEADER,
    BenchRecord,
    bench,
    make_engine,
    make_system,
    write_csv,
)
from portsync.enumerative import EnumEngine
from portsync.symbolic import SymbolicEngine


def test_csv_header_is_frozen():
    assert CSV_HEADER == ("example,engine,n,m,steps,total_ns,mean_step_ns,"
                          "fs_nodes,fb_nodes,fc_nodes,fp_nodes,seed")


def test_make_system_dispatch():
    assert make_system("bus", 2, None).name == "bus2"
    assert make_system("tasks", 2, 1).name == "tasks2x1"
    with pytest.raises(ValueError):
        make_system("nope", 1, None)


def test_make_engine_dispatch(mod8):
    assert isinstance(make_engine(mod8, "enum", 0), EnumEngine)
    assert isinstance(make_engine(mod8, "symbolic", 0), SymbolicEngine)
    with pytest.raises(ValueError):
        make_engine(mod8, "other", 0)


def test_bench_enum_record():
    rec = bench("bus", 1, None, steps=50, seed=3, engine="enum")
    assert rec.example == "bus" and rec.engine == "enum"
    assert rec.n == 1 and rec.m is None
    assert rec.steps == 50
    assert rec.total_ns > 0
    assert rec.mean_step_ns == pytest.approx(rec.total_ns / 50)
    assert rec.fs_nodes is None  # node counts are a symbolic-only column


def test_bench_symbolic_record_has_node_counts():
    rec = bench("tasks", 2, 1, steps=20, seed=0, engine="symbolic")
    assert rec.m == 1
    assert rec.fs_nodes > 0 and rec.fb_nodes > 0
    assert rec.fc_nodes > 0 and rec.fp_nodes > 0


def test_bench_times_fresh_engines(monkeypatch):
    # the warm-up and each timed repetition run on an engine of their own
    # that has taken no step and cached no survivor function, so no timed
    # step replays an earlier trajectory
    started = []
    run = SymbolicEngine.run

    def recording_run(self, steps):
        cached = sum(len(cls.table) for cls in {g.cls for c in self.encoding.components for g in c.groups})
        started.append((self, self.steps_taken, cached))
        return run(self, steps)

    monkeypatch.setattr(SymbolicEngine, "run", recording_run)
    bench("bus", 1, None, steps=10, seed=0, engine="symbolic", repetitions=2)
    assert [(taken, cached) for _, taken, cached in started] == [(0, 0)] * 3
    assert len({id(engine) for engine, _, _ in started}) == 3


def test_default_warmup_is_fixed(monkeypatch):
    # the warm-up runs on an engine of its own, so it only warms the
    # interpreter: a fixed 200 steps, however many steps are timed
    lengths = []
    run = EnumEngine.run

    def recording_run(self, steps):
        lengths.append(steps)
        return run(self, steps)

    monkeypatch.setattr(EnumEngine, "run", recording_run)
    bench("bus", 1, None, steps=1000, seed=0, engine="enum")
    bench("bus", 1, None, steps=10, seed=0, engine="enum")
    assert lengths == [200, 1000, 200, 10]


def test_bench_rejects_zero_steps():
    with pytest.raises(ValueError):
        bench("bus", 1, None, steps=0, seed=0, engine="enum")


def test_bench_rejects_zero_repetitions():
    with pytest.raises(ValueError, match="repetitions must be positive"):
        bench("bus", 1, None, steps=10, seed=0, engine="enum", repetitions=0)


def test_repetitions_take_median():
    rec = bench("bus", 1, None, steps=30, seed=1, engine="enum", repetitions=3)
    assert rec.steps == 30  # one row out, median by total time


def test_csv_row_formatting():
    rec = BenchRecord(
        example="bus", engine="enum", n=4, m=None, steps=10,
        total_ns=1234, mean_step_ns=123.4567,
        fs_nodes=None, fb_nodes=None, fc_nodes=None, fp_nodes=None, seed=7,
    )
    assert rec.csv_row() == "bus,enum,4,,10,1234,123.457,,,,,7"


def test_record_fields_are_in_csv_column_order():
    # csv_row writes the fields in declaration order
    assert [f.name for f in fields(BenchRecord)] == CSV_HEADER.split(",")


def test_write_csv(tmp_path):
    rec = bench("bus", 1, None, steps=10, seed=0, engine="symbolic")
    out = tmp_path / "r.csv"
    write_csv([rec], str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("bus,symbolic,1,,10,")
