"""Boolean encoding and the symbolic engine."""

import gc
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from portsync.bdd import BddManager
import portsync
from portsync.generators import RandomBounds, gen_bus, gen_tasks, modulo8, random_system
from portsync.connectors import Factor, Fusion, PortLeaf
from portsync.model import (
    AtomicBehavior,
    Connector,
    ExplicitPairs,
    MaximalProgress,
    SystemModel,
    Transition,
    ValidationError,
    effective_pairs,
    reachable,
    survivors,
    validate,
)
from portsync.symbolic import (
    SymbolicEngine,
    SystemEncoding,
    build,
    components,
    encode_atom,
    encode_behavior,
    encode_connectors,
    encode_local,
    encode_priority_pairs,
    encode_strict_subset,
    port_groups,
    state_var,
    union_join,
    variable_order,
)
from portsync.connectors import support
from portsync.equivalence import check_equivalence

from oracles import (active_fn, all_states, hub_system, joined_survivor_fn, moved_trigger, oracle_survivors,
                     own_state, port_groups_of, ports_of, reference_connector_fn, reference_pick_sat,
                     reference_priority_pairs, skipped_levels, transfer, whole_survivor_fn)


def _pairs_written_out(sysm):
    return SystemModel(sysm.name, sysm.atoms, sysm.connectors, ExplicitPairs(effective_pairs(sysm.priority, sysm.gamma)))


def test_variable_order_groups_atoms(mod8):
    order = variable_order(mod8)
    assert order[:6] == ("B1.l1", "B1.l2", "p", "p'", "q", "q'")
    assert len(order) == 3 * 2 + 2 * len(mod8.all_ports)


def test_counter_component_formula(mod8):
    # l1 !l2 p !q  OR  !l1 l2 p q  OR  !p !q
    b1 = mod8.atoms[0]
    mgr = BddManager(variable_order(mod8))
    l1, l2 = mgr.var(state_var(b1, "l1")), mgr.var(state_var(b1, "l2"))
    p, q = mgr.var("p"), mgr.var("q")
    want = (l1 & ~l2 & p & ~q) | (~l1 & l2 & p & q) | (~p & ~q)
    assert encode_atom(b1, mgr) == want


def test_local_behavior_is_the_atom_restricted_to_its_state():
    # built from the labels per control state, each local behavior is
    # the node of the atom's behavior restricted to that state
    for sysm in (modulo8(), gen_bus(3), gen_tasks(3, 2), *map(random_system, range(60))):
        m = BddManager(variable_order(sysm))
        for atom in sysm.atoms:
            f, local = encode_atom(atom, m), encode_local(atom, m)
            assert list(local) == list(atom.states)
            for q in atom.states:
                assert local[q] == m.restrict_many(f, {state_var(atom, s): s == q for s in atom.states})


def test_connector_function_models_are_gamma(mod8):
    for sysm in (mod8, gen_bus(1), gen_tasks(2, 1)):
        enc = build(sysm)
        got = set(enc.manager.iter_models(enc.connector_fn, enc.port_names))
        assert got == set(sysm.gamma)


def test_connector_fn_is_the_widened_disjunction():
    # the union-join gives the node of every connector widened to all
    # ports and or-ed, for one component or several, with ports that no
    # connector uses and with a single connector
    systems = [modulo8(), *map(gen_bus, (1, 2, 3)), gen_tasks(2, 1), gen_tasks(3, 2), gen_tasks(4, 4),
               *map(random_system, range(60))]
    unused = single = 0
    for sysm in systems:
        enc = build(sysm)
        want = reference_connector_fn(sysm, enc.manager)
        assert enc.connector_fn == want
        assert encode_connectors(sysm, enc.manager) == want
        unused += bool(set(sysm.all_ports) - {p for c in sysm.connectors for p in support(c.term)})
        single += len(sysm.connectors) == 1
    assert unused > 10 and single > 10


def test_no_connector_gives_false():
    bus = gen_bus(2)
    sysm = SystemModel(bus.name, bus.atoms, (), None)
    enc = build(sysm)
    m = enc.manager
    assert enc.connector_fn == encode_connectors(sysm, m) == union_join((), sysm.all_ports, m) == m.false
    assert enc.survivors(sysm.initial_state()) == frozenset()


def test_node_counts_are_pinned():
    # the union-join and the on-demand f_S and priority inputs change no node
    bus = gen_bus(4)
    pairs = SystemModel(bus.name, bus.atoms, bus.connectors, ExplicitPairs(effective_pairs(bus.priority, bus.gamma)))
    assert build(bus).node_counts() == {"fs_nodes": 197, "fb_nodes": 96, "fc_nodes": 74, "fp_nodes": 156}
    assert build(pairs).node_counts() == {"fs_nodes": 197, "fb_nodes": 96, "fc_nodes": 74, "fp_nodes": 223}
    assert build(gen_tasks(4, 4)).node_counts() == {
        "fs_nodes": 2334, "fb_nodes": 604, "fc_nodes": 1220, "fp_nodes": 356}


def test_build_leaves_what_no_step_reads_unbuilt():
    # the build reads what a step reads: each class representative's local
    # behaviors, f_C and priority inputs, and each component's pick; a group
    # that is a copy of its representative builds none of them; f_B, f_S and the
    # whole system's own functions wait for a reader, and so does every
    # function of a system of one component of one group
    bus, tasks = gen_bus(3), gen_tasks(3, 2)
    step_reads = {"local_behavior", "connector_fn", "pairs_fn", "dominator_fn"}
    joined = copies = 0
    for sysm in (tasks, _pairs_written_out(tasks), bus, _pairs_written_out(bus), modulo8()):
        enc = build(sysm)
        assert not {"behavior_fn", "system_fn", *step_reads} & set(vars(enc))
        for c in enc.components:
            assert callable(c.pick)
            for g in c.groups:
                assert step_reads & set(vars(g)) == (step_reads if g.representative is g else set())
                assert not {"behavior_fn", "system_fn"} & set(vars(g))
                copies += g.representative is not g
            joined += len(c.groups) > 1
        assert enc.system_fn == enc.behavior_fn & enc.connector_fn
    assert joined == 2 and copies == 6


def test_pairs_build_is_the_same_in_every_process():
    # the explicit pairs are joined in a sorted order, not in the order of
    # a frozenset of strings: the build makes the same nodes under every
    # string hash seed
    code = ("from portsync.generators import gen_tasks\n"
            "from portsync.model import ExplicitPairs, SystemModel, effective_pairs\n"
            "from portsync.symbolic import build\n"
            "s = gen_tasks(8, 2)\n"
            "s = SystemModel(s.name, s.atoms, s.connectors, ExplicitPairs(effective_pairs(s.priority, s.gamma)))\n"
            "print(build(s).manager.total_nodes())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(portsync.__file__).resolve().parents[1])}
    counts = {subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                             capture_output=True, text=True, check=True).stdout
              for seed in ("1", "2", "3")}
    assert len(counts) == 1, counts


def test_pairs_fn_is_the_minterm_disjunction():
    # R joined from one cube per pair over the copies of its own ports is
    # the node of the pairs' full minterms, system-wide and per port group
    systems = [_pairs_written_out(s) for s in (gen_bus(3), gen_tasks(3, 2), gen_tasks(4, 4))]
    systems += [r for r in map(random_system, range(60)) if isinstance(r.priority, ExplicitPairs)]
    for sysm in systems:
        enc = build(sysm)
        m = enc.manager
        pairs = sysm.priority.closure
        assert enc.pairs_fn == encode_priority_pairs(pairs, sysm.all_ports, m)
        assert enc.pairs_fn == reference_priority_pairs(pairs, sysm.all_ports, m)
        for g in port_groups_of(enc):
            assert g.pairs_fn == reference_priority_pairs(g.system.priority.closure, g.port_names, m)
    no_pairs = frozenset()
    assert encode_priority_pairs(no_pairs, sysm.all_ports, m) == reference_priority_pairs(no_pairs, sysm.all_ports, m)
    assert encode_priority_pairs(no_pairs, sysm.all_ports, m) == m.false


def test_system_function_conjunction(mod8):
    enc = build(mod8)
    assert enc.system_fn == (enc.behavior_fn & enc.connector_fn)


def test_enabled_fn_matches_restricted_system_fn():
    # the atoms' local behaviors conjoin to the node of restricting f_B
    # (and f_S) by the whole state; the memoised survivor functions, the
    # whole system's and its groups' (a component's entries are theirs),
    # must be those a fresh encoding computes with its memos empty, and
    # the groups' union-join the whole system's
    systems = [modulo8(), gen_bus(3), gen_tasks(3, 2), *map(random_system, range(60))]
    for sysm in systems:
        enc, fresh = build(sysm), build(sysm)
        m = enc.manager
        for state in reachable(sysm, bound=300).states:
            asg = enc.state_assignment(state)
            assert active_fn(enc, state) == m.restrict_many(enc.behavior_fn, asg)
            assert active_fn(enc, state) & enc.connector_fn == m.restrict_many(enc.system_fn, asg)
            fn, entry = enc.survivor_fn(state), enc.survivor_table[state]
            assert enc.survivor_fn(state) == fn == entry[0]
            for c in enc.components:
                entries = c.entries(state)
                assert all(map(operator.is_, c.entries(state), entries))
                assert all(map(operator.is_, entries, (g.representative.survivor_table[g.key(state)]
                                                              for g in c.groups)))
            for g in (fresh, *port_groups_of(fresh)):
                g.survivor_table.clear()
            assert transfer(fresh.survivor_fn(state), m) == fn
            assert transfer(joined_survivor_fn(fresh, state), m) == joined_survivor_fn(enc, state) == fn


def _with_portless_atom(sysm):
    """sysm with an atom that owns no port between its first atom and the rest."""
    idle = AtomicBehavior("Z", ("z0", "z1"), "z1", (), ())
    return SystemModel(sysm.name, (sysm.atoms[0], idle, *sysm.atoms[1:]), sysm.connectors, sysm.priority)


def _dominator_outside_pool():
    # {y, w} dominates x, and no connector offers it: x loses while A can
    # fire y and B can fire w; the pair joins A and B in one component
    fz = frozenset
    a = AtomicBehavior("A", ("s0", "s1"), "s0", ("x", "y"),
                       (Transition("s0", fz("x"), "s1"), Transition("s0", fz("y"), "s0"),
                        Transition("s1", fz("y"), "s0")))
    b = AtomicBehavior("B", ("b0", "b1"), "b0", ("w",), (Transition("b0", fz("w"), "b1"),))
    return SystemModel("m", (a, b), (Connector("cx", PortLeaf("x")), Connector("cw", PortLeaf("w"))),
                       ExplicitPairs(((fz("x"), fz("yw")),)))


def test_local_conjunction_is_the_folded_one():
    # and_local over the atoms that own ports gives the node of the fold of
    # every atom's local behavior conjoined with f_C, and with the
    # dominators, per port group and for the system-level encoding, whose
    # port-less atom sits between two blocks
    bus = gen_bus(3)
    systems = [bus, gen_tasks(3, 2), _pairs_written_out(bus), _dominator_outside_pool(),
               _with_portless_atom(bus), _with_portless_atom(_pairs_written_out(gen_bus(2))),
               *map(random_system, range(8))]
    outside = portless = 0
    for sysm in systems:
        enc = build(sysm)
        m = enc.manager
        encodings = [*port_groups_of(enc), enc]
        outside += any(c.dominator_fn != c.connector_fn for c in encodings)
        portless += any(len(c.local_blocks[0]) < len(c.system.atoms) for c in encodings)
        for state in reachable(sysm, bound=300).states:
            for c in encodings:
                key = own_state(c, sysm, state)
                owners, blocks = c.local_blocks
                factors = [c.local_behavior[i][key[i]] for i in owners]
                active = active_fn(c, key)
                for f in (c.connector_fn, c.dominator_fn):
                    assert m.and_local(f, blocks, factors) == active & f
            assert frozenset(m.iter_models(joined_survivor_fn(enc, state), enc.port_names)) == \
                oracle_survivors(sysm, state) == enc.survivors(state)
    assert outside >= 1 and portless >= 2


def test_portless_atom_steps_and_checks():
    for sysm in (_with_portless_atom(gen_bus(2)), _with_portless_atom(gen_tasks(2, 1))):
        assert validate(sysm) == []
        trace = SymbolicEngine(sysm, seed=5).run(200)
        assert len(trace) == 200 and not trace.deadlocked
        assert check_equivalence(sysm).equivalent


def test_survivor_table_counts_models_over_component_ports():
    # the count the step draws components by is the number of models over
    # the component's own ports, on one- and multi-component systems alike;
    # a component reads its groups' entries and sums their counts
    bus = gen_bus(3)
    randoms = [r for r in map(random_system, range(60)) if len(components(r)) > 1]
    for sysm in (bus, _pairs_written_out(bus), gen_tasks(3, 2), *randoms):
        enc = build(sysm)
        for state in reachable(sysm, bound=300).states:
            for c in enc.components:
                entries = c.entries(state)
                assert all(map(operator.is_, entries, (g.representative.survivor_table[g.key(state)]
                                                              for g in c.groups)))
                fn = joined_survivor_fn(c, state)
                n = len(list(c.manager.iter_models(fn, ports_of(c))))
                assert any(e[1] for e in entries) == (n > 0)
                assert c.survivor_count(entries) == n == sum(e[2] for e in entries)


def test_pick_matches_reference_on_survivor_functions():
    for sysm in (modulo8(), gen_bus(3), gen_tasks(3, 2)):
        enc = build(sysm)
        m = enc.manager
        for state in reachable(sysm, bound=300).states:
            fn = joined_survivor_fn(enc, state)
            for seed in range(8):
                ours, ref = random.Random(seed), random.Random(seed)
                assert m.pick_sat(fn, ours, enc.port_names) == reference_pick_sat(m, fn, enc.port_names, ref)
                assert ours.getstate() == ref.getstate()


def test_maxprog_survivor_fn_equals_materialized_pairs():
    # maximal progress (g's maximal models) and its pairs written out
    # (the product over a minterm relation) must give the same survivor
    # function node at every reachable state, including states whose g
    # leaves a port a don't-care on some path (tasks: {b, go} inside
    # {b, go, p} leaves p free), which the maximal models set true
    systems = [modulo8(), gen_bus(1), gen_bus(3), gen_tasks(2, 1), gen_tasks(3, 2)]
    systems += [r for r in map(random_system, range(60)) if isinstance(r.priority, MaximalProgress)]
    skipping = 0
    for sysm in systems:
        pairs = effective_pairs(sysm.priority, sysm.gamma)
        enc = build(sysm)
        explicit = build(SystemModel(sysm.name, sysm.atoms, sysm.connectors, ExplicitPairs(pairs)))
        for state in reachable(sysm, bound=300).states:
            fn = joined_survivor_fn(enc, state)
            skipping += bool(skipped_levels(active_fn(enc, state) & enc.connector_fn, enc.port_names))
            assert transfer(joined_survivor_fn(explicit, state), enc.manager) == fn
            assert frozenset(enc.manager.iter_models(fn, enc.port_names)) == survivors(sysm, state)
    assert skipping > 0


def test_pair_dominator_outside_pool_is_activity_checked():
    # y dominates x and no connector offers y: x still loses while the
    # y transition is locally active
    fz = frozenset
    atom = AtomicBehavior("A", ("s0", "s1"), "s0", ("x", "y"),
                          (Transition("s0", fz("x"), "s1"), Transition("s1", fz("y"), "s0")))
    sysm = SystemModel("m", (atom,), (Connector("cx", PortLeaf("x")),),
                       ExplicitPairs(((fz("x"), fz("y")),)))
    enc = build(sysm)
    assert enc.survivors(("s0",)) == survivors(sysm, ("s0",)) == {fz("x")}
    atom = AtomicBehavior("A", ("s0", "s1"), "s0", ("x", "y"),
                          (Transition("s0", fz("x"), "s1"), Transition("s0", fz("y"), "s1")))
    sysm = SystemModel("m", (atom,), sysm.connectors, sysm.priority)
    enc = build(sysm)
    assert enc.survivors(("s0",)) == survivors(sysm, ("s0",)) == frozenset()


def test_maxprog_relation_is_strict_subset():
    sysm = modulo8()
    enc = build(sysm)
    assert enc.priority_fn == encode_strict_subset(sysm.all_ports, enc.manager)
    # per port three nodes while the copies are equal so far and two once
    # the inclusion is strict, less four at the last port: linear in ports
    assert enc.node_counts()["fp_nodes"] == 5 * len(sysm.all_ports) - 4


def _two_loops(priority):
    # atoms A (port x) and B (port y), each offered alone by a connector
    fz = frozenset
    atoms = tuple(AtomicBehavior(n, ("s",), "s", (p,), (Transition("s", fz(p), "s"),))
                  for n, p in (("A", "x"), ("B", "y")))
    conns = (Connector("cx", PortLeaf("x")), Connector("cy", PortLeaf("y")))
    return SystemModel("two", atoms, conns, priority)


def test_components():
    assert components(gen_bus(3)) == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
    assert components(gen_tasks(3, 2)) == (tuple(range(5)),)
    assert components(_two_loops(None)) == ((0,), (1,))
    assert components(_two_loops(MaximalProgress())) == ((0,), (1,))
    # a listed pair links the atoms of both of its sides
    linked = _two_loops(ExplicitPairs(frozenset({(frozenset("x"), frozenset("y"))})))
    assert components(linked) == ((0, 1),)
    enc = build(linked)
    (c,) = enc.components
    assert [g.port_names for g in c.groups] == [("x", "y")]
    assert enc.survivors(("s", "s")) == survivors(linked, ("s", "s")) == {frozenset("y")}


def _three_atoms(priority=None):
    # A owns x and w, B owns y and v, C owns z; connectors {x, y}, {v} and {w, z}
    fz = frozenset
    atoms = tuple(AtomicBehavior(n, ("s",), "s", ports, tuple(Transition("s", fz([p]), "s") for p in ports))
                  for n, ports in (("A", ("x", "w")), ("B", ("y", "v")), ("C", ("z",))))
    xy = Fusion((Factor(PortLeaf("x")), Factor(PortLeaf("y"))))
    wz = Fusion((Factor(PortLeaf("w")), Factor(PortLeaf("z"))))
    return SystemModel("three", atoms, (Connector("cxy", xy), Connector("cv", PortLeaf("v")), Connector("cwz", wz)),
                       priority)


def test_port_groups():
    # ports are linked by a connector's support, an explicit pair and a
    # transition label; a group whose owners all own ports of another group
    # merges into it, so each bus cluster is one group (its claims' owners
    # are among the bus's), and tasks makes one group per processor
    p = port_groups(gen_tasks(8, 4))
    assert len(p) == 1 and [len(g) for g in p[0]] == [34] * 4
    assert p[0][0] == (*(f"{x}1_{j}" for j in range(1, 9) for x in "bfpr"), "go1", "halt1")
    assert [len(c) for c in port_groups(_pairs_written_out(gen_tasks(8, 2)))] == [2]
    assert port_groups(gen_bus(2)) == tuple((tuple(f"{x}{i}_{k}" for i in range(1, 5) for x in "cs"),)
                                            for k in (1, 2))
    # {v}, owned by B alone, merges into {x, y}, owned by A and B; {w, z}
    # keeps apart, as C owns none of the others
    assert port_groups(_three_atoms()) == ((("x", "y", "v"), ("w", "z")),)
    # a pair links the groups of both of its sides, and so does a label
    fz = frozenset
    assert port_groups(_three_atoms(ExplicitPairs(fz({(fz("v"), fz("z"))})))) == ((("x", "w", "y", "v", "z"),),)
    assert port_groups(_two_loops(None)) == ((("x",),), (("y",),))
    assert port_groups(_two_loops(ExplicitPairs(fz({(fz("x"), fz("y"))})))) == ((("x", "y"),),)
    a = AtomicBehavior("A", ("s",), "s", ("x", "y"), (Transition("s", fz("xy"), "s"),))
    one_label = SystemModel("m", (a,), (Connector("cx", PortLeaf("x")), Connector("cy", PortLeaf("y"))))
    assert port_groups(one_label) == ((("x", "y"),),)


def test_group_key_shares_states_that_offer_the_same_labels():
    # a task waiting on processor 2 offers nothing to processor 1, as a
    # task running on processor 2 does: processor 1's group keys them alike
    sysm = gen_tasks(3, 2)
    enc = build(sysm)
    (c,) = enc.components
    one, two = c.groups
    assert [a.name for a in one.system.atoms] == ["T1", "T2", "T3", "P1"]
    assert one.system.atoms[0].ports == ("b1_1", "f1_1", "p1_1", "r1_1")
    state = sysm.initial_state()
    waiting, running = ("w2", *state[1:]), ("c2", *state[1:])
    # the tasks form one orbit: the key sorts their values ("c2" < "s")
    assert one.key(waiting) == one.key(running) == ("c2", "s", "s", "l0")
    assert one.key(("s", "s", "c2", "l0")) == ("c2", "s", "s", "l0")
    # the processors' groups form one class, whose table processor 1's
    # group keeps: processor 2's group reads it at the states of processor
    # 1's group where its tasks offer the same ranked labels
    assert two.representative is one
    assert two.key(waiting) == ("s", "s", "w1", "l0")
    assert two.key(running) == ("c1", "s", "s", "l0")
    # the orientation names the task whose value each position holds
    assert two.orient(waiting) == [1, 2, 0, 3]
    c.entries(waiting)
    c.entries(running)
    assert len(one.survivor_table) == 3 and len(two.survivor_table) == 0


def test_one_survivor_table_per_class():
    # bus16's clusters form one class: after a run only the representative
    # keeps a table, with at most one entry per state of its cluster that a
    # run meets (16 at seed 7)
    engine = SymbolicEngine(gen_bus(16), seed=7)
    engine.run(2000)
    groups = port_groups_of(engine.encoding)
    rep = groups[0]
    assert all(g.representative is rep for g in groups)
    assert all(not g.survivor_table for g in groups[1:])
    assert 0 < len(rep.survivor_table) <= 16


def test_survivor_fn_is_entered_once_per_class_table_miss(monkeypatch):
    # the step and the check read a class table first and enter
    # survivor_fn only at a key the table does not hold, which fills it
    entered = []
    survivor_fn = SystemEncoding.survivor_fn

    def counted(self, state):
        assert state not in self.survivor_table
        entered.append(self)
        return survivor_fn(self, state)

    monkeypatch.setattr(SystemEncoding, "survivor_fn", counted)
    systems = (gen_bus(4), gen_tasks(4, 2), _pairs_written_out(gen_tasks(3, 2)))
    for sysm in systems:
        engine, checked = SymbolicEngine(sysm, seed=7), build(sysm)
        for enc, run in ((engine.encoding, lambda: engine.run(500)),
                         (checked, lambda: check_equivalence(sysm, encoding=checked))):
            del entered[:]
            run()
            assert len(entered) == sum(len(g.survivor_table) for g in port_groups_of(enc)) > 0


def test_one_class_entry_gives_each_group_its_copy():
    # at the initial state of tasks 3x2 both processors' groups read one
    # class entry; each translates its models onto its own ports, and the
    # component counts the entry once per group
    sysm = gen_tasks(3, 2)
    state = sysm.initial_state()
    enc = build(sysm)
    (c,) = enc.components
    one, two = c.groups
    first, second = c.entries(state)
    assert first is second and first[1]
    models = list(enc.manager.iter_models(first[0], one.port_names))
    assert [one.translate(m, one.orient(state)) for m in models] == models
    assert [{g.translate(m, g.orient(state)) for m in models} for g in c.groups] == \
        [{a for a in survivors(sysm, state) if a <= set(g.port_names)} for g in c.groups]
    assert c.survivor_count([first, second]) == 2 * first[2] == len(survivors(sysm, state))


def _cluster_changed(change):
    """bus2, and bus2 with its pairs written out, each passed through
    `change`, which changes the second cluster."""
    return change(gen_bus(2)), change(_pairs_written_out(gen_bus(2)))


def _classes(enc):
    """The groups of each class, the classes in the order of their representatives."""
    classes: dict[int, list] = {}
    for g in port_groups_of(enc):
        classes.setdefault(id(g.representative), []).append(g)
    return list(classes.values())


def test_isomorphic_groups_form_one_class():
    # every port group of the benchmark's systems is a copy of the first
    # under an order-preserving rename of its ports
    for sysm, n in ((gen_bus(16), 16), (gen_tasks(8, 4), 4), (_pairs_written_out(gen_tasks(8, 2)), 2)):
        (members,) = _classes(build(sysm))
        assert len(members) == n
        rep, other = members[0], members[-1]
        m, unmoved = rep.manager, rep.orient and list(range(len(rep.system.atoms)))
        assert {other.translate(a, unmoved) for a in m.iter_models(rep.connector_fn, rep.port_names)} == \
            set(m.iter_models(other.connector_fn, other.port_names))


def test_nearly_isomorphic_groups_keep_apart():
    # a cluster of bus2 changed in one respect is not a copy of the other:
    # each stays a class of its own, and the engines still agree
    fz = frozenset

    def extra_label(s):  # member1_2 can also send from A
        atoms = tuple(AtomicBehavior(a.name, a.states, a.init, a.ports,
                                     (*a.transitions, Transition("A", fz({"s1_2"}), "A")))
                      if a.name == "member1_2" else a for a in s.atoms)
        return SystemModel(s.name, atoms, s.connectors, s.priority)

    def pair_dropped(s):  # one pair inside cluster 2 that no other pair implies
        pairs = s.priority.pairs
        lo, hi = next(ab for ab in sorted(pairs, key=sorted) if "s1_2" in ab[0] | ab[1]
                      and len(ExplicitPairs(pairs - {ab}).closure) < len(pairs))
        return SystemModel(s.name, s.atoms, s.connectors, ExplicitPairs(pairs - {(lo, hi)}))

    def outside_dominator(s):  # two claims of cluster 2 together dominate one of them
        pair = (fz({"c1_2"}), fz({"c1_2", "c2_2"}))
        return SystemModel(s.name, s.atoms, s.connectors, ExplicitPairs(s.priority.pairs | {pair}))

    def owners_swapped(s):  # member4_2, the bus's synchron, before member1_2
        atoms = list(s.atoms)
        atoms[4], atoms[7] = atoms[7], atoms[4]
        return SystemModel(s.name, tuple(atoms), s.connectors, s.priority)

    assert [len(_classes(build(s))) for s in (gen_bus(2), _pairs_written_out(gen_bus(2)))] == [1, 1]
    cases = [*_cluster_changed(lambda s: moved_trigger(s, "bus_2")), *_cluster_changed(extra_label),
             *_cluster_changed(owners_swapped)]
    cases += [change(_pairs_written_out(gen_bus(2))) for change in (pair_dropped, outside_dominator)]
    for sysm in cases:
        assert [len(members) for members in _classes(build(sysm))] == [1, 1]
        assert check_equivalence(sysm).equivalent


def _t1_t2_swap(g):
    """Whether T1 and T2 lie in one orbit of a tasks 3x2 group g: the keys
    of T1 running on g's processor and of T2 running there agree."""
    c = "c" + g.system.atoms[-1].name[1:]  # running on g's processor
    return g.key((c, "s", "s", "l0", "l0")) == g.key(("s", c, "s", "l0", "l0"))


def test_orbit_keys_give_each_state_its_survivors():
    # the tasks of each tasks group form one orbit, whose key values are
    # sorted; a bus cluster has none and keeps its itemgetter key; the
    # translated survivors are the system's at every reachable state (every
    # state of the hub systems)
    named = [gen_tasks(3, 2), gen_tasks(4, 2), gen_bus(3), _pairs_written_out(gen_tasks(3, 2))]
    cases = [(s, reachable(s, bound=5000).states) for s in named]
    cases += [(h, all_states(h)) for h in map(hub_system, range(40))]
    oriented = 0
    for sysm, states in cases:
        enc = build(sysm)
        oriented += sum(g.orient is not None for g in port_groups_of(enc))
        for state in states:
            assert enc.survivors(state) == survivors(sysm, state)
    assert oriented >= 6
    tasks = build(gen_tasks(4, 2))
    for g in port_groups_of(tasks):
        key = g.key(("c1", "s", "w2", "s", "l0", "l0"))
        assert all(g.key((*p, "l0", "l0")) == key
                   for p in (("s", "c1", "s", "w2"), ("w2", "s", "s", "c1"), ("s", "w2", "c1", "s")))
    for g in port_groups_of(build(gen_bus(16))):
        assert g.orient is None and isinstance(g.key, operator.itemgetter)


def test_swaps_that_are_not_symmetries_keep_apart():
    # tasks 3x2 with one of processor 1's connectors, transitions or pairs
    # changed for T1 and T2: the two stay out of one orbit of processor 1's
    # group (so do the others the change touches), processor 2's group
    # keeps its orbit, and the engines still agree
    fz = frozenset
    tasks, pairs = gen_tasks(3, 2), _pairs_written_out(gen_tasks(3, 2))

    def extra_label(s):  # T2 can also begin on processor 1 while waiting on it
        atoms = tuple(AtomicBehavior(a.name, a.states, a.init, a.ports,
                                     (*a.transitions, Transition("w1", fz({"b1_2"}), "c1")))
                      if a.name == "T2" else a for a in s.atoms)
        return SystemModel(s.name, atoms, s.connectors, s.priority)

    def pair_dropped(s):  # one pair on T1 and T2 that no other pair implies
        ps = s.priority.pairs
        ab = next(ab for ab in sorted(ps, key=lambda ab: (sorted(ab[0]), sorted(ab[1])))
                  if {"b1_2", "p1_1"} <= ab[0] | ab[1] and len(ExplicitPairs(ps - {ab}).closure) < len(ps))
        return SystemModel(s.name, s.atoms, s.connectors, ExplicitPairs(ps - {ab}))

    for sysm in (tasks, pairs):
        one, two = port_groups_of(build(sysm))
        assert _t1_t2_swap(one) and _t1_t2_swap(two)
    for sysm in (moved_trigger(tasks, "beg_2_over_1_1"), moved_trigger(pairs, "beg_2_over_1_1"),
                 extra_label(tasks), extra_label(pairs), pair_dropped(pairs)):
        one, two = port_groups_of(build(sysm))
        assert not _t1_t2_swap(one) and _t1_t2_swap(two)
        assert check_equivalence(sysm).equivalent


def _chi_square(engine, states, per=100):
    """The chi-square of the engine's picks at each state (`per` draws per
    survivor) against exact uniformity, summed, and its degrees of freedom;
    every survivor must come up."""
    chi2 = dof = 0
    for state in states:
        expected = survivors(engine.system, state)
        fired = []
        for _ in range(per * len(expected)):
            engine.state = state
            fired.append(engine.step()[0])
        assert set(fired) == expected
        chi2 += sum((fired.count(a) - per) ** 2 / per for a in expected)
        dof += len(expected) - 1
    return chi2, dof


def test_picks_are_uniform(broadcast_system):
    # against exact uniformity at up to 15 states with two or more
    # survivors: the total chi-square over the states must stay within 6
    # standard deviations of its degrees of freedom (the bound was fixed
    # before the first run); a draw among components (bus 2) and among
    # port groups (tasks) takes part
    bc = SystemModel("bc", broadcast_system.atoms, broadcast_system.connectors, None)
    for sysm in (bc, gen_bus(2), gen_tasks(3, 2), gen_tasks(4, 2)):
        states = sorted(s for s in reachable(sysm, bound=5000).states if len(survivors(sysm, s)) > 1)
        states = random.Random(11).sample(states, min(15, len(states)))
        chi2, dof = _chi_square(SymbolicEngine(sysm, seed=13), states)
        assert dof >= 7 and chi2 <= dof + 6 * (2 * dof) ** 0.5, (sysm.name, chi2, dof)


def test_copied_group_function_is_its_own_sub_systems():
    # a group's survivors are its class entry's models translated onto its
    # ports; they must be the models of the node its own sub-system encodes,
    # at its owners' states in each reachable state (every state of the hub
    # systems and of tasks 3x2, where the tasks form orbits); bus 4's clusters are
    # independent copies of bus 1, so the states that put each cluster in
    # the same reachable state of bus 1 give every group each of its owners'
    # states that a reachable state gives it
    bus1 = reachable(gen_bus(1)).states
    cases = [(gen_tasks(3, 2), all_states(gen_tasks(3, 2))), (gen_bus(4), [s * 4 for s in bus1])]
    cases += [(h, all_states(h)) for h in map(hub_system, range(40))]
    cases += [(r, reachable(r, bound=300).states) for r in map(random_system, range(300))]
    copies = keys = 0
    for sysm, states in cases:
        enc = build(sysm)
        copies += sum(g.representative is not g for g in port_groups_of(enc))
        seen = set()
        for c in enc.components:
            for state in states:
                for g, e in zip(c.groups, c.entries(state)):
                    key = own_state(g, sysm, state)
                    if (g.port_names, key) not in seen:
                        seen.add((g.port_names, key))
                        m, perm = g.manager, g.orient and g.orient(state)
                        assert {g.translate(a, perm) for a in m.iter_models(e[0], g.representative.port_names)} == \
                            set(m.iter_models(whole_survivor_fn(g, key), g.port_names))
        keys += len(seen)
    assert copies >= 10 and keys > 800


def test_group_join_is_the_whole_component_function():
    # the union-join of a component's port groups' survivor functions is
    # the node the whole system gives with every port outside the component
    # false, at every reachable state (every state of the small random
    # systems)
    bounds = RandomBounds(max_atoms=5, max_ports=4)
    randoms = [r for r in (random_system(seed, bounds) for seed in range(1500))
               if any(len(c) > 1 for c in port_groups(r))]
    assert len(randoms) >= 10
    named = [gen_tasks(3, 2), gen_tasks(4, 2), gen_bus(3), _three_atoms()]
    cases = [(s, reachable(s, bound=300).states) for s in (*named, *map(_pairs_written_out, named))]
    cases += [(r, all_states(r)) for r in randoms]
    hubs = [hub_system(seed) for seed in range(40)]  # one atom joins connectors on disjoint ports
    cases += [(h, all_states(h)) for h in hubs]
    joined = hubs_joined = 0
    for sysm, states in cases:
        enc = build(sysm)
        joined += sum(len(c.groups) > 1 for c in enc.components)
        hubs_joined += sysm in hubs and any(len(c.groups) > 1 for c in enc.components)
        m = enc.manager
        for state in states:
            whole = whole_survivor_fn(enc, state)
            for c in enc.components:
                outside = {p: False for p in sysm.all_ports if p not in ports_of(c)}
                assert joined_survivor_fn(c, state) == m.restrict_many(whole, outside)
            assert enc.survivors(state) == survivors(sysm, state)
    assert joined >= 6 + len(randoms)
    assert hubs_joined >= 20


def test_a_component_miss_whose_groups_hit_allocates_no_node():
    # the engine never builds a component's join: once every group of the
    # component has an entry at the new state, reading the component only
    # reads them
    reads = 0
    for sysm in (gen_tasks(4, 2), gen_tasks(8, 4)):
        engine = SymbolicEngine(sysm, seed=3)
        m = engine.encoding.manager
        for c in engine.encoding.components:
            if len(c.groups) > 1:
                def checked(state, c=c, read=c.entries):
                    nonlocal reads
                    if all(g.key(state) in g.representative.survivor_table for g in c.groups):
                        before = m.total_nodes()
                        read(state)
                        assert m.total_nodes() == before
                        reads += 1
                    return read(state)
                c.entries = checked
        engine.run(3000)
    assert reads > 100


def test_steps_leave_no_reference_cycles():
    # the kernel's per-call recursions are closures that refer to
    # themselves; each is cleared before its call returns, so stepping
    # leaves nothing for the cycle collector
    tasks = gen_tasks(4, 2)
    for sysm in (tasks, gen_bus(4), _pairs_written_out(tasks)):
        engine = SymbolicEngine(sysm, seed=1)
        engine.step()
        gc.collect()
        gc.disable()
        try:
            engine.run(300)
            assert gc.collect() == 0, sysm.name
        finally:
            gc.enable()


def test_component_survivors_match_system():
    # survivors() joins the components' groups' model sets; the union-join
    # of each component's groups' survivor functions is the system's with
    # every port outside the component false; the assembled f_C and f_B
    # are the nodes a direct encoding of the whole system gives
    randoms = [r for r in map(random_system, range(60)) if len(components(r)) > 1]
    assert len(randoms) > 20
    bus = gen_bus(3)
    pairs = ExplicitPairs(effective_pairs(bus.priority, bus.gamma))
    for sysm in (bus, SystemModel(bus.name, bus.atoms, bus.connectors, pairs), *randoms):
        enc = build(sysm)
        m = enc.manager
        assert len(enc.components) == len(components(sysm))
        assert enc.connector_fn == encode_connectors(sysm, m)
        assert enc.behavior_fn == encode_behavior(sysm, m)
        for state in reachable(sysm, bound=300).states:
            assert enc.survivors(state) == survivors(sysm, state)
            whole = enc.survivor_fn(state)
            for c in enc.components:
                outside = {p: False for p in sysm.all_ports if p not in ports_of(c)}
                assert joined_survivor_fn(c, state) == m.restrict_many(whole, outside)


def test_every_live_component_gets_picked():
    # over many seeds at one state, the draw reaches every component
    # that has survivors
    sysm = gen_bus(3)
    state = ("B", "A", "A", "A", "B", "B", "A", "A", "A", "A", "A", "B")
    enc = build(sysm)
    live = {k for k, c in enumerate(enc.components) if any(e[1] for e in c.entries(state))}
    assert len(live) == 3
    picked = set()
    for seed in range(60):
        eng = SymbolicEngine(sysm, seed=seed)
        eng.state = state
        a, _ = eng.step()
        assert a in survivors(sysm, state)
        picked.add(next(k for k, c in enumerate(enc.components) if a <= set(ports_of(c))))
    assert picked == live


def test_picks_reach_every_survivor(broadcast_system):
    # the sender alone or with any receivers: eight survivors at the one state
    sysm = SystemModel("bc", broadcast_system.atoms, broadcast_system.connectors, None)
    expected = survivors(sysm, sysm.initial_state())
    assert len(expected) == 8
    for seed in range(10):
        fired = {a for a, _ in SymbolicEngine(sysm, seed=seed).run(500).steps}
        assert fired == expected, seed


def test_component_draw_is_weighted_by_survivor_counts():
    # A offers one survivor over one port, B three over three ports: the
    # draw must follow the survivor counts (1:3), not the model counts
    # over all variables
    fz = frozenset
    a = AtomicBehavior("A", ("s",), "s", ("x",), (Transition("s", fz("x"), "s"),))
    ports = ("y1", "y2", "y3")
    b = AtomicBehavior("B", ("s",), "s", ports, tuple(Transition("s", fz([p]), "s") for p in ports))
    sysm = SystemModel("ab", (a, b), tuple(Connector(p, PortLeaf(p)) for p in ("x", *ports)))
    firsts = [SymbolicEngine(sysm, seed=seed).step()[0] for seed in range(400)]
    assert 70 < firsts.count(fz("x")) < 130


def test_incremental_step_equals_a_full_read():
    # the step re-reads only the component the last step moved: at every
    # step its entries, live components and weights must be those of a fresh
    # read of every component, also after a reset and after the state is set
    # from outside, and it must fire what an engine that reads every
    # component at every step fires
    randoms = [r for r in map(random_system, range(400))
               if len(components(r)) > 1 and len(reachable(r, bound=10).states) > 2]
    assert len(randoms) >= 5
    for sysm in (gen_bus(3), gen_bus(16), *randoms):
        eng, full = SymbolicEngine(sysm, seed=5), SymbolicEngine(sysm, seed=5)

        def steps(n):
            for _ in range(n):
                before = eng.state
                full.state = tuple(list(full.state))  # equal, but not the tuple its step produced
                result = eng.step()
                assert result == full.step()
                fresh = [c.entries(before) for c in eng.encoding.components]
                assert [list(map(id, es)) for es in eng._entries] == [list(map(id, es)) for es in fresh]
                live = [k for k, es in enumerate(fresh) if any(e[1] for e in es)]
                assert eng._live == live
                if len(live) > 1:
                    assert eng._weights == [eng.encoding.components[k].survivor_count(fresh[k]) for k in live]
                if result is None:
                    return

        steps(100)
        eng.reset()
        full.reset()
        steps(50)
        other = max(reachable(sysm, bound=200).states - {eng.state})
        eng.state = full.state = other
        steps(50)


def test_incremental_step_reports_deadlock():
    # two independent atoms that fire once each: the third step re-reads
    # the component the second moved and finds no component live
    fz = frozenset
    atoms = tuple(AtomicBehavior(n, ("s", "t"), "s", (p,), (Transition("s", fz(p), "t"),))
                  for n, p in (("A", "x"), ("B", "y")))
    sysm = SystemModel("ab", atoms, tuple(Connector(p, PortLeaf(p)) for p in "xy"))
    eng = SymbolicEngine(sysm, seed=0)
    assert len(eng.encoding.components) == 2
    assert {eng.step()[0], eng.step()[0]} == {fz("x"), fz("y")}
    assert eng.step() is None and eng.step() is None
    assert eng.state == ("t", "t")
    eng.reset()
    assert len(eng.run(5)) == 2


def test_survivors_match_core_semantics(mod8, broadcast_system):
    for sysm in (mod8, broadcast_system, gen_bus(1), gen_tasks(2, 1)):
        enc = build(sysm)
        for state in all_states(sysm):
            assert enc.survivors(state) == survivors(sysm, state)
            assert enc.survivors(state) == frozenset(oracle_survivors(sysm, state))


def test_node_counts_keys(mod8):
    counts = build(mod8).node_counts()
    assert set(counts) == {"fs_nodes", "fb_nodes", "fc_nodes", "fp_nodes"}
    assert all(v > 0 for v in counts.values())


def test_build_rejects_invalid_system():
    from portsync.model import AtomicBehavior, Connector, SystemModel, Transition
    from portsync.connectors import PortLeaf
    bad = SystemModel(
        "m",
        (AtomicBehavior("A", ("s",), "s", ("p",),
                        (Transition("s", frozenset({"p"}), "s"),)),),
        (Connector("c", PortLeaf("zz")),),
        None,
    )
    with pytest.raises(ValidationError):
        build(bad)


class TestEngine:
    def test_modulo8_trace(self, mod8):
        eng = SymbolicEngine(mod8, seed=0)
        tr = eng.run(8)
        got = [" ".join(sorted(a)) for a in tr.interactions]
        assert got == ["p", "p q r", "p", "p q r s t",
                       "p", "p q r", "p", "p q r s t u"]

    def test_same_seed_same_trace(self, broadcast_system):
        t1 = SymbolicEngine(broadcast_system, seed=42).run(30).interactions
        t2 = SymbolicEngine(broadcast_system, seed=42).run(30).interactions
        assert t1 == t2

    def test_reset_restores_initial(self, mod8):
        eng = SymbolicEngine(mod8, seed=1)
        eng.run(5)
        eng.reset()
        assert eng.state == mod8.initial_state()
        assert eng.steps_taken == 0

    def test_deadlock(self, deadlock_system):
        eng = SymbolicEngine(deadlock_system, seed=0)
        first = eng.step()
        assert first is not None and first[0] == frozenset({"k"})
        assert eng.step() is None
        eng.reset()
        tr = eng.run(10)
        assert tr.deadlocked
        assert len(tr) == 1

    def test_trace_total_time_recorded(self, mod8):
        tr = SymbolicEngine(mod8, seed=0).run(4)
        assert tr.total_ns > 0
