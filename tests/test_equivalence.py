"""Cross-engine agreement over explored state spaces."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import portsync
from portsync import equivalence
from portsync.connectors import Factor, Fusion, OneLeaf, PortLeaf
from portsync.dsl import parse, serialize
from portsync.enumerative import EnumEngine
from portsync.equivalence import check_equivalence
from portsync.generators import gen_bus, gen_tasks, modulo8, random_system
from portsync.model import (
    AtomicBehavior,
    Connector,
    SystemModel,
    Transition,
    act,
    reachable,
    successors,
    survivors,
)
from portsync.symbolic import SymbolicEngine, SystemEncoding, build

from oracles import cell_system, moved_trigger, reference_walk, with_outside_dominator


def test_modulo8_equivalent(mod8):
    report = check_equivalence(mod8)
    assert report.equivalent
    assert report.states_checked == 8
    assert report.summary() == "equivalent, 8 states"


def test_tasks_equivalent():
    report = check_equivalence(gen_tasks(2, 1))
    assert report.equivalent
    assert not report.truncated


def test_bus_equivalent():
    report = check_equivalence(gen_bus(2))
    assert report.equivalent
    assert report.states_checked == 256


def test_truncation_is_flagged_not_fatal():
    report = check_equivalence(gen_bus(2), bound=10)
    assert report.truncated
    assert report.states_checked == 10
    assert report.equivalent  # no divergence among the visited states


def test_corrupted_encoding_reports_divergence(mod8):
    enc = build(mod8)
    (c,) = enc.components
    (group,) = c.groups
    group.cls.encoding.connector_fn = enc.manager.false  # sabotage the class the step reads: symbolic sees no pool
    report = check_equivalence(mod8, encoding=enc)
    assert not report.equivalent
    d = report.divergences[0]
    assert d.enum_survivors != d.symbolic_survivors
    assert "divergence" in report.summary()


def _over_reporting(sysm):
    """An encoding of sysm whose first class encoding's atoms offer every
    label at every state: its class reports survivors that are not enabled."""
    enc = build(sysm)
    rep = enc.components[0].groups[0].cls.encoding
    rep.local_behavior = tuple({s: enc.manager.true for s in local} for local in rep.local_behavior)
    return enc


def test_over_reporting_encoding_reports_divergence():
    # a symbolic survivor that is not enabled is reported, and not fired
    for sysm in (modulo8(), gen_bus(2)):
        report = check_equivalence(sysm, encoding=_over_reporting(sysm))
        assert not report.equivalent and report.states_checked == len(reachable(sysm).states)
        extra = [(d.state, a) for d in report.divergences for a in d.symbolic_survivors - d.enum_survivors]
        assert extra and any(not act(sysm, s, a) for s, a in extra)
        assert all(d.symbolic_survivors - d.enum_survivors for d in report.divergences)
        assert "divergence" in report.summary()


def _diverging_at(sysm, states):
    """An encoding of sysm whose survivor sets are empty at `states`."""
    enc = build(sysm)
    read = enc.survivors
    enc.survivors = lambda state: frozenset() if state in states else read(state)
    return enc


def test_divergence_past_truncation_is_reported():
    # bus2's initial state has more successors than the bound leaves room
    # for, so the walk truncates while expanding it; the only other state
    # taken is expanded after that, and its divergence is still reported
    sysm = gen_bus(2)
    init = sysm.initial_state()
    assert len({t for a in survivors(sysm, init) for t in successors(sysm, init, a)} - {init}) >= 2
    report = check_equivalence(sysm, bound=2, encoding=_diverging_at(sysm, set(reachable(sysm).states) - {init}))
    assert report.truncated and report.states_checked == 2
    (d,) = report.divergences
    assert d.state != init and d.symbolic_survivors == frozenset() < d.enum_survivors


def test_check_matches_the_reference_walk(monkeypatch):
    # the check builds no successor past the bound: its reports equal those
    # of the walk that reads every successor, also where encodings diverge
    bus3 = gen_bus(3)
    cases = [(modulo8(), None), (bus3, None), (gen_tasks(3, 2), None), (gen_tasks(4, 2), None),
             *((random_system(seed), None) for seed in range(30)),
             (modulo8(), _over_reporting(modulo8())), (gen_bus(2), _over_reporting(gen_bus(2))),
             (bus3, _diverging_at(bus3, set(sorted(reachable(bus3, bound=3000).states)[::7])))]
    diverging = 0
    for sysm, enc in cases:
        for bound in (1, 2, 5, 30, 300, 10**5):
            got = check_equivalence(sysm, bound=bound, encoding=enc)
            with monkeypatch.context() as m:
                m.setattr(equivalence, "walk", reference_walk)
                want = check_equivalence(sysm, bound=bound, encoding=enc)
            assert (got.states_checked, got.truncated, got.divergences) == \
                (want.states_checked, want.truncated, want.divergences), (sysm.name, bound)
            diverging += len(got.divergences)
    assert diverging > 100


def _without(sysm, name):
    """sysm without the connector called `name`."""
    return SystemModel(sysm.name, sysm.atoms, tuple(c for c in sysm.connectors if c.name != name), sysm.priority)


def test_corrupted_component_reports_divergence():
    # bus2 with one bus trigger moved is two independent clusters, each a
    # component of one port group, that are not isomorphic; tasks 3x2 less
    # one connector on processor 2 is one component of two groups, one per
    # processor, that are not isomorphic either; so each group is a class
    # of its own, whose encoding encodes its own f_C
    for sysm, k in ((moved_trigger(gen_bus(2), "bus_2"), 1), (_without(gen_tasks(3, 2), "beg_2_over_1_2"), 0)):
        enc = build(sysm)
        groups = enc.components[k].groups
        assert (len(enc.components), len(groups)) == ((2, 1) if k else (1, 2))
        classes = {g.cls for c in enc.components for g in c.groups}
        assert len(classes) == sum(len(c.groups) for c in enc.components)
        groups[-1].cls.encoding.connector_fn = enc.manager.false  # sabotage one cluster, or one processor
        report = check_equivalence(sysm, encoding=enc)
        assert not report.equivalent
        d = report.divergences[0]
        # the intact cluster or processor still offers its survivors
        assert frozenset() < d.symbolic_survivors < d.enum_survivors


def test_corrupted_representative_diverges_in_its_whole_class():
    # bus3's clusters form one class: every cluster reads the one class
    # object and its encoding, the first cluster's, so sabotaging that
    # encoding silences all three; no cluster holds an encoding of its own
    sysm = gen_bus(3)
    enc = build(sysm)
    groups = [c.groups[0] for c in enc.components]
    assert all(g.cls is groups[0].cls for g in groups)
    assert not any(isinstance(v, SystemEncoding) for g in groups for v in vars(g).values())
    groups[0].cls.encoding.connector_fn = enc.manager.false
    report = check_equivalence(sysm, encoding=enc)
    assert not report.equivalent
    d = report.divergences[0]
    assert d.symbolic_survivors == frozenset()
    assert all(any(a & set(g.system.all_ports) for a in d.enum_survivors) for g in groups)


def test_random_systems_equivalent():
    for seed in range(15):
        report = check_equivalence(random_system(seed), bound=2000)
        assert report.equivalent, report.summary()


def test_cell_systems_move_and_check_equivalent():
    # the copied-cell family reaches many states and builds orbits and
    # components of several groups, which `random_system` 0-119 never
    # does: of seeds 0-119, 72 reach 50 states or more, 50 have a class
    # with orbits and 29 a component of several groups; a `Group.read`
    # that takes each orbit place's port from the owner at its own
    # position, not from its row of the occupancy field, diverges on 23
    # of them
    reaching, orbits, several = 0, 0, 0
    for seed in range(120):
        sysm = cell_system(seed)
        assert parse(serialize(sysm)) == sysm
        enc = build(sysm)
        report = check_equivalence(sysm, bound=2000, encoding=enc)
        assert report.equivalent, (seed, report.summary())
        reaching += report.states_checked >= 50
        orbits += any(g.cls.orbits for c in enc.components for g in c.groups)
        several += any(len(c.groups) > 1 for c in enc.components)
    assert reaching >= 70 and orbits >= 50 and several >= 25, (reaching, orbits, several)


def test_random_pairs_with_a_dominator_outside_the_pool_equivalent():
    # a listed dominator that no connector offers need only be locally
    # active to exclude its pool interaction
    checked = 0
    for seed in range(300):
        variant = with_outside_dominator(seed)
        if variant is None:
            continue
        report = check_equivalence(variant[0], bound=2000)
        assert report.equivalent, (seed, report.summary())
        checked += 1
    assert checked >= 15


def test_check_walks_the_reachable_states():
    # `check` and `reachable` share one walk: past the bound it takes no
    # new state but still expands the queued ones
    systems = [modulo8(), gen_bus(3), gen_tasks(3, 2), gen_tasks(4, 2), *map(random_system, range(60))]
    truncated = 0
    for sysm in systems:
        for bound in (5, 30, 300, 10**5):
            report, reach = check_equivalence(sysm, bound=bound), reachable(sysm, bound=bound)
            assert report.equivalent
            assert report.states_checked == len(reach.states) <= bound
            assert report.truncated == reach.truncated
            truncated += reach.truncated
    assert truncated > 5


def test_check_expands_each_fired_survivor_once(monkeypatch):
    # the check builds a state's successors through the module's own
    # `successors`, one call per survivor it fires at each checked state,
    # and none once the walk has truncated
    calls = []
    real = equivalence.successors
    monkeypatch.setattr(equivalence, "successors", lambda sysm, state, a: calls.append((state, a)) or real(sysm, state, a))
    tasks = gen_tasks(3, 2)
    report = check_equivalence(tasks)
    states = reachable(tasks).states
    assert report.equivalent and not report.truncated and report.states_checked == len(states)
    assert Counter(calls) == Counter((s, a) for s in states for a in survivors(tasks, s))
    calls.clear()
    bus = gen_bus(2)
    init = bus.initial_state()
    report = check_equivalence(bus, bound=5)
    # the walk truncates while it reads the initial state's successors: four
    # new states, then one refused; the four states taken are checked but
    # none of their successors is built
    assert report.truncated and report.states_checked == 5
    assert len(calls) == 5 and {s for s, _ in calls} == {init}
    assert all(survivors(bus, s) for s in reachable(bus, bound=5).states)


def test_constant_one_trigger_lets_its_synchron_fire():
    # [1' s] denotes {{}, {s}}: the empty trigger passes causality to s,
    # so the encoding must offer {s} as the enumerative pool does
    s = frozenset({"s"})
    atom = AtomicBehavior("A", ("q",), "q", ("s",), (Transition("q", s, "q"),))
    term = Fusion((Factor(OneLeaf(), True), Factor(PortLeaf("s"), False)))
    sysm = SystemModel("one", (atom,), (Connector("c", term),))
    assert check_equivalence(sysm).summary() == "equivalent, 1 states"
    for engine in (EnumEngine(sysm, seed=1), SymbolicEngine(sysm, seed=1)):
        trace = engine.run(3)
        assert not trace.deadlocked and trace.interactions == (s, s, s)


def test_check_and_reachable_visit_the_same_states_in_every_process():
    # both walks fire in a fixed order (pool order, then each interaction's
    # successors sorted), so a truncated walk takes the same states under
    # every string hash seed, and `check` takes those `reachable` takes
    code = ("import hashlib\n"
            "from portsync import equivalence\n"
            "from portsync.generators import gen_bus, gen_tasks\n"
            "from portsync.model import reachable\n"
            "walks, walk = [], equivalence.walk\n"
            "equivalence.walk = lambda *args: walks.append(walk(*args)) or walks[-1]\n"
            "for s, bound in ((gen_bus(16), 100), (gen_tasks(8, 4), 30)):\n"
            "    assert equivalence.check_equivalence(s, bound=bound).equivalent\n"
            "    states = sorted(walks[-1].states)\n"
            "    assert states == sorted(reachable(s, bound=bound).states) and len(states) == bound\n"
            "    print(hashlib.sha256(repr(states).encode()).hexdigest())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(portsync.__file__).resolve().parents[1])}
    digests = {subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, check=True).stdout
               for seed in ("0", "1", "2", "3")}
    assert len(digests) == 1, digests
