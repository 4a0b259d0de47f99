"""Example family generators and the random model source."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from portsync.connectors import interactions_of
from portsync.dsl import parse, serialize
from portsync.generators import (
    RandomBounds,
    gen_bus,
    gen_tasks,
    modulo8,
    random_system,
)
from portsync.model import MaximalProgress, validate

from oracles import pairs_written_out

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models.py"


def fz(*names):
    return frozenset(names)


def test_families_refuse_sizes_below_their_least():
    with pytest.raises(ValueError, match="bus needs at least one cluster"):
        gen_bus(0)
    with pytest.raises(ValueError, match="tasks needs at least two tasks and one processor"):
        gen_tasks(1, 1)


@pytest.mark.parametrize("family,digest", [
    (modulo8, "0c284361061e149302732d34f302a2326794daf5fa946fb9383b5e6825a75cc3"),
    (lambda: gen_bus(1), "62783ac512f98a4401e4d7562f78bf6f4496281e9079174e856791cc84388637"),
    (lambda: gen_bus(16), "daebea3bc046ea307e5a6a63319dc995733045aa98006224a9388082f5ae3d0a"),
    (lambda: gen_tasks(2, 1), "8417a5a5a8e418f9cdc482629ff66c39594d5ad2a460ea1c7bb432887a21965f"),
    (lambda: gen_tasks(3, 2), "5da244690c7891fbdfcc48b65b83495cde206412a5ea3a7cd6d5aa20c652406a"),
    (lambda: gen_tasks(8, 4), "740b54200d386676ef269fa8172820fd887fdb2411b31b6635b539f442c97f63"),
], ids=["modulo8", "bus1", "bus16", "tasks2x1", "tasks3x2", "tasks8x4"])
def test_families_are_pinned(family, digest):
    # frozen snapshots: a change here means a family's model drifted
    assert hashlib.sha256(serialize(family()).encode()).hexdigest() == digest


def test_benchmark_texts_are_the_families():
    spec = importlib.util.spec_from_file_location("perfbench_models", MODELS)
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    for n in (1, 2, 16):
        assert parse(models.bus_text(n)) == gen_bus(n)
    for n, m in ((2, 1), (3, 2), (8, 4)):
        assert parse(models.tasks_text(n, m)) == gen_tasks(n, m)
    for n, m in ((3, 2), (8, 2)):
        assert parse(models.tasks_pairs_text(n, m)) == pairs_written_out(gen_tasks(n, m))


class TestModulo8:
    def test_shape(self, mod8):
        assert [a.name for a in mod8.atoms] == ["B1", "B2", "B3"]
        assert len(mod8.connectors) == 1
        assert isinstance(mod8.priority, MaximalProgress)

    def test_gamma(self, mod8):
        assert mod8.gamma == {
            fz("p"), fz("p", "q", "r"),
            fz("p", "q", "r", "s", "t"),
            fz("p", "q", "r", "s", "t", "u"),
        }


class TestBus:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_connector_count(self, n):
        assert len(gen_bus(n).connectors) == 5 * n

    def test_validates(self):
        assert validate(gen_bus(3)) == []

    def test_cluster_interactions(self):
        sysm = gen_bus(1)
        assert len(sysm.gamma) == 18  # 4 singleton claims + 14 bus combinations
        bus = next(c for c in sysm.connectors if c.name.startswith("bus"))
        ints = interactions_of(bus.term)
        assert len(ints) == 14
        # three triggers, one synchron: s4 rides along, never initiates
        assert fz("s4_1") not in ints
        assert fz("s1_1", "s2_1", "s3_1", "s4_1") in ints

    def test_gamma_scales(self):
        assert len(gen_bus(2).gamma) == 36


class TestTasks:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 4), (3, 2), (4, 2)])
    def test_connector_count(self, n, m):
        assert len(gen_tasks(n, m).connectors) == 2 * n * (n - 1) * m

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 2)])
    def test_pool_size(self, n, m):
        # every connector yields the pair {trigger} and {trigger+synchron}
        assert len(gen_tasks(n, m).gamma) == 2 * n * n * m

    def test_validates(self):
        assert validate(gen_tasks(3, 2)) == []

    def test_connector_interactions(self):
        sysm = gen_tasks(2, 1)
        beg = next(c for c in sysm.connectors if c.name.startswith("beg"))
        ints = interactions_of(beg.term)
        assert len(ints) == 2
        small, large = sorted(ints, key=len)
        assert small < large
        assert len(small) == 2 and len(large) == 3

    def test_task_automaton(self):
        t1 = gen_tasks(2, 2).atoms[0]
        assert t1.states == ("s", "c1", "c2", "w1", "w2")
        assert t1.init == "s"
        assert len(t1.transitions) == 4 * 2


class TestRandom:
    def test_same_seed_same_model(self):
        assert random_system(5) == random_system(5)

    def test_different_seeds_differ(self):
        models = {serialize(random_system(s)) for s in range(10)}
        assert len(models) > 1

    def test_all_valid(self):
        for seed in range(40):
            assert validate(random_system(seed)) == []

    def test_minimal_bounds(self):
        sysm = random_system(0, RandomBounds(1, 1, 1, 1))
        assert len(sysm.atoms) == 1
        assert validate(sysm) == []

    def test_golden_seed0(self):
        # frozen snapshot; a change here means generation drifted
        got = serialize(random_system(0, RandomBounds(2, 2, 2, 2)))
        assert got == GOLDEN_SEED0


GOLDEN_SEED0 = """\
system random0 {
  atom A0 {
    ports p0_0;
    states q0_0 init, q0_1;
    trans q0_0 -[ p0_0 ]-> q0_1;
    trans q0_1 -[ p0_0 ]-> q0_1;
  }
  atom A1 {
    ports p1_0;
    states q1_0 init, q1_1;
    trans q1_1 -[ p1_0 ]-> q1_1;
    trans q1_1 -[ p1_0 ]-> q1_0;
  }
  connector c0 = p1_0;
  connector c1 = p1_0;
}
"""
