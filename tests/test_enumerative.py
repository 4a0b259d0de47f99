"""Enumerative engine: pool scanning, costs, traces."""

from dataclasses import replace

import pytest

from portsync import model
from portsync.connectors import interaction_key
from portsync.dsl import parse
from portsync.enumerative import EnumEngine
from portsync.generators import gen_bus, gen_tasks, modulo8, random_system
from portsync.model import AtomicBehavior, MaximalProgress, reachable, survivors
from portsync.symbolic import SymbolicEngine, build

from oracles import all_states, oracle_act, pairs_written_out, reference_enum_survivors, with_outside_dominator


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
            assert eng.survivors(state) == [a for a in eng.pool if a in survivors(sysm, state)]
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
        ordered = sorted(self.survivors(), key=interaction_key)
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
            got = frozenset(eng.survivors(state))
            assert (got, eng.activity_checks - before[0], eng.priority_checks - before[1]) == reference_enum_survivors(sysm, state)
            states += 1
    assert states > 2000
    # some state has an active interaction whose added dominator outside
    # the pool is active too, so that dominator decides its exclusion
    assert any(oracle_act(s, st, lo) and oracle_act(s, st, hi)
               for s, (lo, hi) in outside for st in reachable(s, bound=2000).states)


def test_survivors_probe_only_the_dominators_outside_the_pool(monkeypatch):
    # the scan tests the labels each pool interaction needs once, in pool
    # order; a dominator in the pool is read from the scan, so under
    # maximal progress nothing more is tested
    calls = []

    class Offered(set):
        def issuperset(self, labels):
            calls.append(labels)
            return super().issuperset(labels)

    real = EnumEngine._offered
    monkeypatch.setattr(EnumEngine, "_offered", lambda self, state: Offered(real(self, state)))
    maxprog = [modulo8(), gen_bus(3), gen_tasks(3, 2)]
    assert all(isinstance(s.priority, MaximalProgress) for s in maxprog)
    systems = maxprog + [pairs_written_out(gen_tasks(3, 2))] + [s for s, _ in filter(None, map(with_outside_dominator, range(200)))]
    extra = []
    for sysm in systems:
        eng = EnumEngine(sysm)
        needed = {a: frozenset(label for _, label, _ in sysm.shares(a)) for a in sysm.gamma | {b for doms in sysm.dominators.values() for b in doms}}
        outside = {needed[b] for doms in sysm.dominators.values() for b in doms if b not in sysm.gamma}
        probes = 0
        for state in reachable(sysm, bound=200).states:
            calls.clear()
            eng.survivors(state)
            assert calls[:len(eng.pool)] == [needed[a] for a in eng.pool]
            assert set(calls[len(eng.pool):]) <= outside
            probes += len(calls) - len(eng.pool)
        extra.append(probes)
    assert extra[:4] == [0, 0, 0, 0]  # every dominator lies in the pool
    assert sum(extra) > 0


def test_kept_offer_equals_a_full_union():
    # the step swaps the moved atoms' labels in the set it keeps: after
    # every step it must be the union built afresh, also after a reset and
    # after the state is set from outside, and the step must fire and count
    # what an engine fires and counts whose state is set from outside
    # before every step, so that it reads each state by comparing it
    randoms = [r for r in map(random_system, range(400))
               if any(len(r.shares(a)) > 1 for a in r.gamma) and len(reachable(r, bound=10).states) > 2]
    outside = [s for s, _ in filter(None, map(with_outside_dominator, range(200)))]
    assert len(randoms) >= 10 and len(outside) >= 10
    for sysm in (gen_bus(3), gen_bus(16), gen_tasks(3, 2), modulo8(), *randoms, *outside):
        eng, full = EnumEngine(sysm, seed=5), EnumEngine(sysm, seed=5)

        def steps(n):
            for _ in range(n):
                full.state = tuple(list(full.state))  # equal, but not the tuple its step produced
                result = eng.step()
                assert (result, eng.activity_checks, eng.priority_checks) == \
                    (full.step(), full.activity_checks, full.priority_checks)
                if result is None:
                    return
                assert eng._last is eng.state
                assert eng._offer == set().union(*(atom.labels_from[q] for atom, q in zip(sysm.atoms, eng.state)))

        steps(100)
        eng.reset()
        full.reset()
        steps(50)
        other = max(reachable(sysm, bound=200).states - {eng.state}, default=sysm.initial_state())
        eng.state = full.state = other
        steps(50)


def test_every_step_reads_the_survivors_once(monkeypatch):
    # the traced benchmark run times the scan as `EnumEngine.survivors`,
    # so the step must reach the scan through it, once per step
    calls = []
    real = EnumEngine.survivors

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(EnumEngine, "survivors", counted)
    for sysm in (modulo8(), gen_bus(3), gen_tasks(3, 2), *map(random_system, range(20))):
        calls.clear()
        trace = EnumEngine(sysm, seed=3).run(60)
        assert len(calls) == len(trace) + trace.deadlocked


def _edge_system():
    """Pool members and dominators outside the pool that need a port set
    its atom never takes as a label, states that offer nothing, and an
    atom C, placed between the others, that owns no port."""
    sysm = parse('''system edges {
  atom A {
    ports a1, a2;
    states s0 init, s1, s2;
    trans s0 -[ a1 ]-> s1;
    trans s0 -[ a1, a2 ]-> s2;
    trans s1 -[ a1 ]-> s0;
    trans s1 -[ a2 ]-> s2;
  }
  atom B {
    ports b1, b2;
    states t0 init, t1;
    trans t0 -[ b1 ]-> t1;
    trans t1 -[ b1 ]-> t0;
  }
  connector x = a1' b1';
  connector w = a2;
  connector y = a2 b1 b2;
  connector z = b2;
  priority {a1} < {a1, b2} {b1} < {a1, a2} {a1} < {a1, b1};
}''')
    a, b = sysm.atoms
    return replace(sysm, atoms=(a, AtomicBehavior("C", ("u0",), "u0", (), ()), b))


@pytest.mark.parametrize("maxprog", [False, True], ids=["pairs", "maxprog"])
def test_survivors_and_counters_match_the_filter_on_edge_cases(maxprog):
    # b2 is no label of B, so the pool members {b2} and {a2 b1 b2} and the
    # outside dominator {a1 b2} are never active, while the outside
    # dominator {a1 a2} is at s0 (maximal progress has neither); A at s2
    # and C offer nothing.  Every state of the product is read, so the
    # reachable ones are
    sysm = _edge_system()
    if maxprog:
        sysm = replace(sysm, priority=MaximalProgress())
    eng = EnumEngine(sysm)
    states = all_states(sysm)
    assert len(states) == 6
    never = [frozenset(p.split()) for p in ("b2", "a2 b1 b2", "a1 b2")]
    assert not any(oracle_act(sysm, st, a) for a in never for st in states)
    assert any(oracle_act(sysm, st, frozenset({"a1", "a2"})) for st in states)
    for state in states:
        before = eng.activity_checks, eng.priority_checks
        got = frozenset(eng.survivors(state))
        assert (got, eng.activity_checks - before[0], eng.priority_checks - before[1]) == reference_enum_survivors(sysm, state)
        assert got == survivors(sysm, state)
    assert eng.activity_checks == 6 * len(eng.pool) == 36


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


def test_steps_refuse_a_state_of_the_wrong_arity():
    # gen_tasks(3, 2) is deadlocked at its state below: a step at that
    # state with one more atom must not report deadlock, nor one at the
    # state one atom short; both engines refuse both, after a step too,
    # and leave their state and generator as they were
    sysm = gen_tasks(3, 2)
    dead = ("w1", "w1", "w1", "l0", "l0")
    assert not survivors(sysm, dead)
    for engine in (EnumEngine, SymbolicEngine):
        eng = engine(sysm, seed=3)
        for state in ((*dead, "l0"), dead[:-1]):
            for stepped in (False, True):
                eng.reset()
                if stepped:
                    eng.step()
                eng.state = state
                coins = eng._rng.getstate()
                with pytest.raises(ValueError, match="state arity does not match the number of atoms"):
                    eng.step()
                assert eng.state == state and eng._rng.getstate() == coins
        eng.state = dead
        assert eng.step() is None
