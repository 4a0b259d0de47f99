"""Enumerative engine: pool scanning, costs, traces."""

import pytest

from portsync import model
from portsync.enumerative import EnumEngine
from portsync.generators import gen_bus, gen_tasks, modulo8, random_system
from portsync.model import MaximalProgress, reachable, sorted_interactions, survivors
from portsync.symbolic import build

from oracles import oracle_act, pairs_written_out, reference_enum_survivors, with_outside_dominator


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


def test_survivors_and_counters_match_the_filter_as_first_written():
    # the filter reads in-pool dominators from the scan and still counts
    # one probe per dominator of each active interaction
    randoms = [random_system(seed) for seed in range(200)]
    outside = [v for v in map(with_outside_dominator, range(200)) if v is not None]
    systems = [modulo8(), gen_bus(3), gen_tasks(3, 2), pairs_written_out(gen_tasks(3, 2)), *randoms, *(s for s, _ in outside)]
    assert len(outside) >= 10
    states = 0
    for sysm in systems:
        eng = EnumEngine(sysm)
        for state in reachable(sysm, bound=2000).states:
            before = eng.activity_checks, eng.priority_checks
            got = eng.survivors(state)
            assert (got, eng.activity_checks - before[0], eng.priority_checks - before[1]) == reference_enum_survivors(sysm, state)
            states += 1
    assert states > 2000
    # some state has an active interaction whose added dominator outside
    # the pool is active too, so that dominator decides its exclusion
    assert any(oracle_act(s, st, lo) and oracle_act(s, st, hi)
               for s, (lo, hi) in outside for st in reachable(s, bound=2000).states)


def test_survivors_probe_only_the_dominators_outside_the_pool(monkeypatch):
    # the scan runs `_active` once per pool interaction; a dominator in the
    # pool is read from the scan, so under maximal progress nothing more runs
    calls = []
    real = EnumEngine._active
    monkeypatch.setattr(EnumEngine, "_active", lambda self, plan, state: calls.append(plan) or real(self, plan, state))
    maxprog = [modulo8(), gen_bus(3), gen_tasks(3, 2)]
    assert all(isinstance(s.priority, MaximalProgress) for s in maxprog)
    systems = maxprog + [pairs_written_out(gen_tasks(3, 2))] + [s for s, _ in filter(None, map(with_outside_dominator, range(200)))]
    extra = []
    for sysm in systems:
        eng = EnumEngine(sysm)
        outside = {sysm.shares(b) for doms in sysm.dominators.values() for b in doms if b not in eng._index}
        probes = 0
        for state in reachable(sysm, bound=200).states:
            calls.clear()
            eng.survivors(state)
            assert calls[:len(eng.pool)] == eng._plans
            assert set(calls[len(eng.pool):]) <= outside
            probes += len(calls) - len(eng.pool)
        extra.append(probes)
    assert extra[:4] == [0, 0, 0, 0]  # every dominator lies in the pool
    assert sum(extra) > 0


def test_survivors_refuse_a_state_of_the_wrong_arity():
    # as `model.survivors` does, also where a longer state starts with a
    # valid one
    sysm = gen_bus(2)
    s0 = sysm.initial_state()
    eng, enc = EnumEngine(sysm), build(sysm)
    for state in ((*s0, s0[0]), s0[:-1]):
        for survivors_at in (lambda st: survivors(sysm, st), eng.survivors, enc.survivors):
            with pytest.raises(ValueError, match="state arity does not match the number of atoms"):
                survivors_at(state)
    assert eng.activity_checks == eng.priority_checks == 0
