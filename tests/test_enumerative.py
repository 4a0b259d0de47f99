"""Enumerative engine: pool scanning, costs, traces."""

from portsync import model
from portsync.enumerative import EnumEngine
from portsync.generators import gen_bus, gen_tasks, modulo8, random_system
from portsync.model import sorted_interactions, survivors


def test_pool_is_sorted_gamma(mod8):
    eng = EnumEngine(mod8)
    assert set(eng.pool) == set(mod8.gamma)
    sizes = [len(a) for a in eng.pool]
    assert sizes == sorted(sizes)


def test_modulo8_trace(mod8):
    eng = EnumEngine(mod8, seed=0)
    tr = eng.run(8)
    got = [" ".join(sorted(a)) for a in tr.interactions]
    assert got == ["p", "p q r", "p", "p q r s t",
                   "p", "p q r", "p", "p q r s t u"]


def test_activity_checks_count_full_scans(mod8):
    # honest enumeration: every step rescans the whole pool
    eng = EnumEngine(mod8, seed=0)
    eng.run(50)
    assert eng.activity_checks == 50 * len(eng.pool)


def test_priority_probes_happen_under_maxprog(broadcast_system):
    eng = EnumEngine(broadcast_system, seed=0)
    eng.run(5)
    assert eng.priority_checks > 0


def test_survivors_agree_with_core(mod8, broadcast_system):
    for sysm in (mod8, broadcast_system, gen_bus(2)):
        eng = EnumEngine(sysm)
        state = sysm.initial_state()
        for _ in range(6):
            assert eng.survivors(state) == survivors(sysm, state)
            out = eng.step()
            if out is None:
                break
            state = out[1]


def test_deterministic_per_seed():
    from conftest import _loop_atom
    from portsync.connectors import PortLeaf
    from portsync.model import Connector, SystemModel
    # two incomparable singletons, no priority: a genuine coin flip each step
    sysm = SystemModel(
        "pair",
        (_loop_atom("X", "x"), _loop_atom("Y", "y")),
        (Connector("cx", PortLeaf("x")), Connector("cy", PortLeaf("y"))),
        None,
    )
    t1 = EnumEngine(sysm, seed=9).run(40).interactions
    t2 = EnumEngine(sysm, seed=9).run(40).interactions
    t3 = EnumEngine(sysm, seed=10).run(40).interactions
    assert t1 == t2
    assert t1 != t3
    assert {frozenset({"x"}), frozenset({"y"})} == set(t1)


def test_reset_clears_counters(mod8):
    eng = EnumEngine(mod8, seed=0)
    eng.run(10)
    eng.reset()
    assert eng.activity_checks == 0
    assert eng.priority_checks == 0
    assert eng.state == mod8.initial_state()


def test_deadlock_stops_run(deadlock_system):
    eng = EnumEngine(deadlock_system, seed=0)
    tr = eng.run(10)
    assert tr.deadlocked
    assert len(tr) == 1
    assert eng.step() is None


class _SortingEngine(EnumEngine):
    """The step as first written: the survivors re-sorted by
    `interaction_key`, fired through `model.step`."""

    def step(self):
        ordered = sorted_interactions(self.survivors())
        if not ordered:
            return None
        a = self._rng.choice(ordered)
        self.state = model.step(self.system, self.state, a, self._rng)
        self.steps_taken += 1
        return a, self.state


def test_step_draws_in_pool_order_without_the_pool_check(monkeypatch):
    # the survivors in pool order are the sorted survivors, and a survivor
    # moves its owners as `model.step` would, without its re-check
    systems = [modulo8(), gen_bus(2), gen_tasks(3, 2), *map(random_system, range(30))]
    def traces(engine):
        return [(t.steps, t.deadlocked) for t in (engine(s, seed=seed).run(150) for s in systems for seed in (1, 2))]

    want = traces(_SortingEngine)
    monkeypatch.setattr(model, "_enabled_moves", None)  # the check `model.step` makes
    assert traces(EnumEngine) == want
    assert sum(len(steps) for steps, _ in want) > 4000
