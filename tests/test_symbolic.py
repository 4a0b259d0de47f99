"""Boolean encoding and the symbolic engine."""

import gc
import operator
import os
import random
import subprocess
import sys
from bisect import bisect
from itertools import accumulate, product
from pathlib import Path

import pytest

from portsync.bdd import BddManager
import portsync
from portsync.generators import RandomBounds, gen_bus, gen_tasks, modulo8, random_system
from portsync.connectors import Factor, Fusion, OneLeaf, PortLeaf, ZeroLeaf
from portsync.dsl import parse
from portsync.enumerative import EnumEngine
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
    successors,
    survivors,
    validate,
    walk,
)
from portsync import symbolic
from portsync.symbolic import (
    SymbolicEngine,
    SystemEncoding,
    build,
    encode_atom,
    encode_behavior,
    encode_connectors,
    encode_local,
    encode_priority_pairs,
    encode_strict_subset,
    state_var,
    variable_order,
)
from portsync.connectors import interactions_of, support
from portsync.equivalence import check_equivalence

from oracles import (active_fn, all_states, cell_system, components, encode_connector, hub_system, joined_survivor_fn,
                     key_of, moved_trigger, oracle_orient, oracle_survivors, own_state, pairs_written_out, port_groups,
                     port_groups_of, ports_of, reference_connector_fn, reference_pick_sat, reference_priority_pairs,
                     skipped_levels, transfer, whole_survivor_fn, with_outside_dominator)


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


def _with_constants(seed):
    """A library-built system whose connector terms mix the constants 1
    and 0, which the text has no syntax for, with ports, each port once
    per connector; a connector may hold a constant alone."""
    rng = random.Random(seed)
    fz = frozenset
    atoms = tuple(AtomicBehavior(n, ("s",), "s", ports, tuple(Transition("s", fz((p,)), "s") for p in ports))
                  for n, ports in (("A", ("a1", "a2")), ("B", ("b1", "b2")), ("C", ("c1", "c2"))))

    def term(free, depth):
        if depth == 0 or rng.random() < 0.35:
            return PortLeaf(free.pop()) if free and rng.random() < 0.6 else rng.choice((OneLeaf(), ZeroLeaf()))
        return Fusion(tuple(Factor(term(free, depth - 1), rng.random() < 0.5) for _ in range(rng.randint(1, 3))))

    ports = [p for a in atoms for p in a.ports]
    conns = tuple(Connector(f"k{i}", term(rng.sample(ports, len(ports)), 3)) for i in range(rng.randint(1, 4)))
    return SystemModel(f"constants{seed}", atoms, conns, MaximalProgress())


def test_connector_fn_is_the_widened_disjunction():
    # f_C gives the node of every connector widened to all ports and
    # or-ed, system-wide and for each class encoding, for one component
    # or several, with ports that no connector uses, with a single
    # connector, with shapes whose ports interleave and with the
    # constants 1 and 0
    systems = [modulo8(), *map(gen_bus, (1, 2, 3)), gen_tasks(2, 1), gen_tasks(3, 2), gen_tasks(4, 4),
               _interleaved_shapes(), *map(hub_system, range(40)), *map(random_system, range(60)),
               *map(_with_constants, range(40))]
    unused = single = constants = 0
    for sysm in systems:
        enc = build(sysm)
        want = reference_connector_fn(sysm, enc.manager)
        assert enc.connector_fn == want
        assert encode_connectors(sysm, enc.manager) == want
        for members in _classes(enc):
            rep = members[0].cls.encoding
            assert rep.connector_fn == reference_connector_fn(rep.system, enc.manager)
        assert frozenset(enc.manager.iter_models(enc.connector_fn, enc.port_names)) == sysm.gamma
        unused += bool(set(sysm.all_ports) - {p for c in sysm.connectors for p in support(c.term)})
        single += len(sysm.connectors) == 1
        constants += any(isinstance(t, (OneLeaf, ZeroLeaf)) for t in _leaves(sysm))
    assert unused > 10 and single > 10 and constants > 30


def _leaves(sysm):
    """Every leaf of every connector term of `sysm`."""
    def rec(t):
        return [leaf for f in t.factors for leaf in rec(f.term)] if isinstance(t, Fusion) else [t]

    return [leaf for c in sysm.connectors for leaf in rec(c.term)]


def test_connectors_with_constants_check_equivalent():
    for seed in range(40):
        assert check_equivalence(_with_constants(seed)).equivalent


def test_connector_fn_creates_at_most_its_nodes_and_one_per_level():
    # f_C over tasks 8x4 and bus 8, system-wide and for each class
    # encoding, built in a manager that already holds the local behaviors:
    # it may create no more nodes than it has plus one per level it spans
    # (the union-join of renamed connectors it replaced created 1446 for the
    # representative's 220-node f_C)
    for sysm, nodes in ((gen_tasks(8, 4), [2884, 220]), (gen_bus(8), [150, 17])):
        reps = [members[0].cls.encoding for members in _classes(build(sysm))]
        counts = []
        for sub in (sysm, *(rep.system for rep in reps)):
            enc = SystemEncoding(sub, BddManager(variable_order(sysm)))
            enc.local_behavior
            m, before = enc.manager, enc.manager.total_nodes()
            fc = enc.connector_fn
            assert m.total_nodes() - before <= m.node_count(fc) + len(sub.all_ports)
            counts.append(m.node_count(fc))
        assert counts == nodes


def _interleaved_shapes():
    """Connectors of one shape whose ports interleave with other ports'
    levels, the term order of a shape against the level order, and two
    connectors whose terms agree over indices but not over ranks."""
    fz = frozenset
    atoms = tuple(AtomicBehavior(n, ("s",), "s", ports, tuple(Transition("s", fz((p,)), "s") for p in ports))
                  for n, ports in (("A", ("a1", "a2", "a3")), ("B", ("b1", "b2", "b3"))))

    def term(*ports, synchrons=1):
        return Fusion(tuple(Factor(PortLeaf(p), k < len(ports) - synchrons) for k, p in enumerate(ports)))

    conns = [("x", term("b1", "a1")), ("y", term("b2", "a2")), ("z", term("a3", "b3")),
             ("u", term("a1", "b2", "a3", synchrons=2)), ("v", term("a2", "b3", "a3", synchrons=2))]
    return SystemModel("interleaved", atoms, tuple(Connector(n, t) for n, t in conns), MaximalProgress())


def _ranked_term(term, rank):
    if isinstance(term, PortLeaf):
        return rank[term.port]
    if isinstance(term, Fusion):
        return tuple((_ranked_term(f.term, rank), f.trigger) for f in term.factors)
    return term


def _shapes(sysm, mgr):
    """The connectors' distinct terms over the ranks of their ports by level."""
    def shape(conn):
        ports = sorted(support(conn.term), key=mgr.level_of)
        return _ranked_term(conn.term, {p: r for r, p in enumerate(ports)})

    return {shape(c) for c in sysm.connectors}


def _shape_heads(sysm, mgr):
    """Each connector with the first connector of its shape, the term over
    the ranks of its ports by level, whose encoding it reads."""
    def shape(conn):
        ports = sorted(support(conn.term), key=mgr.level_of)
        return _ranked_term(conn.term, {p: r for r, p in enumerate(ports)})

    heads: dict = {}
    return [(heads.setdefault(shape(c), c), c) for c in sysm.connectors]


def test_each_connector_leaf_is_its_direct_encoding():
    # one encoding per shape, read by each other connector of it through its
    # own levels, gives the node a derivation of the connector's own causal
    # rules gives: f_C of a connector and the first of its shape is the
    # disjunction of their direct encodings
    systems = [modulo8(), gen_bus(3), gen_tasks(3, 2), gen_tasks(4, 4), _interleaved_shapes(),
               *map(hub_system, range(40)), *map(random_system, range(60))]
    renamed = 0
    for sysm in systems:
        m = BddManager(variable_order(sysm))
        for head, conn in _shape_heads(sysm, m):
            pair = SystemModel(sysm.name, sysm.atoms, tuple(dict.fromkeys((head, conn))), sysm.priority)
            assert encode_connectors(pair, m) == \
                encode_connector(head, sysm.all_ports, m) | encode_connector(conn, sysm.all_ports, m)
            renamed += head is not conn
    assert renamed > 150


def test_interleaved_shapes_are_renamed_in_level_order():
    sysm = _interleaved_shapes()
    m = BddManager(variable_order(sysm))
    assert len(_shapes(sysm, m)) == 3
    for head, conn in _shape_heads(sysm, m):
        pair = SystemModel(sysm.name, sysm.atoms, tuple(dict.fromkeys((head, conn))), sysm.priority)
        want = {a for c in (head, conn) for a in interactions_of(c.term) if a}
        assert set(m.iter_models(encode_connectors(pair, m), sysm.all_ports)) == want


def test_causal_rules_run_once_per_shape(monkeypatch):
    calls = []
    real = symbolic.causal_rules
    monkeypatch.setattr(symbolic, "causal_rules", lambda tree: calls.append(tree) or real(tree))
    # the build encodes each class encoding's connectors
    for sysm, connectors, shapes in ((gen_tasks(8, 4), 112, 2), (gen_bus(16), 5, 2)):
        calls.clear()
        classes = {g.cls for g in port_groups_of(build(sysm))}
        assert sum(len(cls.encoding.system.connectors) for cls in classes) == connectors
        assert len(calls) == shapes
    for sysm in (modulo8(), gen_tasks(3, 2), _interleaved_shapes(), *map(hub_system, range(40)),
                 *map(random_system, range(60))):
        m = BddManager(variable_order(sysm))
        calls.clear()
        encode_connectors(sysm, m)
        assert len(calls) == len(_shapes(sysm, m))


def test_expr_bdd_refuses_a_non_expression():
    with pytest.raises(TypeError, match="not a boolean expression: 'p'"):
        symbolic._expr_bdd(BddManager(["p"]), "p")


def test_no_connector_gives_false():
    bus = gen_bus(2)
    sysm = SystemModel(bus.name, bus.atoms, (), None)
    enc = build(sysm)
    m = enc.manager
    assert enc.connector_fn == encode_connectors(sysm, m) == m.from_rows((), range(len(m.variables))) == m.false
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
    # the build reads what a step reads: each class encoding's local
    # behaviors, f_C and priority inputs, and each component's pick; a group
    # holds no encoding of its own, so one that copies its class's first
    # group builds none of them; f_B, f_S and the whole system's own
    # functions wait for a reader, and so does every function of a system
    # of one component of one group
    bus, tasks = gen_bus(3), gen_tasks(3, 2)
    step_reads = {"local_behavior", "connector_fn", "pairs_fn"}
    joined = copies = 0
    for sysm in (tasks, pairs_written_out(tasks), bus, pairs_written_out(bus), modulo8()):
        enc = build(sysm)
        assert not {"behavior_fn", "system_fn", *step_reads} & set(vars(enc))
        for c in enc.components:
            assert callable(c.pick)
            for g in c.groups:
                assert step_reads <= set(vars(g.cls.encoding))
                assert not {"behavior_fn", "system_fn"} & set(vars(g.cls.encoding))
                assert not any(isinstance(v, SystemEncoding) for v in vars(g).values())
                copies += g.cls.encoding.system is not g.system
            joined += len(c.groups) > 1
        assert enc.system_fn == enc.behavior_fn & enc.connector_fn
    assert joined == 2 and copies == 6


def test_pairs_build_is_the_same_in_every_process():
    # R is built from the pairs' set of minterms and f_C from the
    # connectors' rows, not in the order of a frozenset of strings: the
    # build makes the same nodes under every string hash seed
    code = ("from portsync.generators import gen_tasks\n"
            "from portsync.model import ExplicitPairs, SystemModel, effective_pairs\n"
            "from portsync.symbolic import build\n"
            "s = gen_tasks(8, 2)\n"
            "s = SystemModel(s.name, s.atoms, s.connectors, ExplicitPairs(effective_pairs(s.priority, s.gamma)))\n"
            "print(build(s).manager.total_nodes(), build(gen_tasks(8, 4)).manager.total_nodes())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(portsync.__file__).resolve().parents[1])}
    counts = {subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                             capture_output=True, text=True, check=True).stdout
              for seed in ("1", "2", "3")}
    assert len(counts) == 1, counts


def test_build_makes_the_same_node_arrays_in_every_process():
    # each local behavior joins its labels in the order of their first
    # transitions, not in a frozenset's: after a build the manager's node
    # arrays are the same under every string hash seed
    code = ("import hashlib\n"
            "from portsync.generators import gen_bus, gen_tasks, modulo8\n"
            "from portsync.symbolic import build\n"
            "for s in (gen_tasks(2, 2), modulo8(), gen_bus(2)):\n"
            "    m = build(s).manager\n"
            "    print(hashlib.sha256(repr((m._var, m._lo, m._hi)).encode()).hexdigest())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(portsync.__file__).resolve().parents[1])}
    digests = {subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, check=True).stdout
               for seed in ("1", "2", "3")}
    assert len(digests) == 1, digests


def test_pairs_fn_is_the_minterm_disjunction():
    # R joined from one cube per pair over the copies of its own ports is
    # the node of the pairs' full minterms, system-wide and per port group
    systems = [pairs_written_out(s) for s in (gen_bus(3), gen_tasks(3, 2), gen_tasks(4, 4))]
    systems += [r for r in map(random_system, range(60)) if isinstance(r.priority, ExplicitPairs)]
    for sysm in systems:
        enc = build(sysm)
        m = enc.manager
        pairs = sysm.priority.closure
        assert enc.pairs_fn == encode_priority_pairs(pairs, sysm.all_ports, m)
        assert enc.pairs_fn == reference_priority_pairs(pairs, sysm.all_ports, m)
        for g in port_groups_of(enc):
            assert SystemEncoding(g.system, m).pairs_fn == \
                reference_priority_pairs(g.system.priority.closure, g.system.all_ports, m)
    no_pairs = frozenset()
    assert encode_priority_pairs(no_pairs, sysm.all_ports, m) == reference_priority_pairs(no_pairs, sysm.all_ports, m)
    assert encode_priority_pairs(no_pairs, sysm.all_ports, m) == m.false


def test_pairs_fn_creates_at_most_its_nodes_and_one_per_level():
    # R over tasks 8x2's explicit pairs, system-wide and for each class
    # encoding, built in a manager that already holds the local
    # behaviors and f_C: it may create no more nodes than it has plus one
    # per level it spans (one widened cube per pair joined by a balanced
    # union created 3522 for the representative's 468-node R)
    sysm = pairs_written_out(gen_tasks(8, 2))
    reps = [members[0].cls.encoding for members in _classes(build(sysm))]
    assert [len(rep.system.priority.closure) for rep in reps] == [112]
    for sub in (sysm, *(rep.system for rep in reps)):
        enc = SystemEncoding(sub, BddManager(variable_order(sysm)))
        enc.local_behavior, enc.connector_fn
        m, before = enc.manager, enc.manager.total_nodes()
        r = enc.pairs_fn
        assert m.total_nodes() - before <= m.node_count(r) + 2 * len(sub.all_ports)
        assert m.node_count(r) == (1602 if sub is sysm else 468)


def test_system_function_conjunction(mod8):
    enc = build(mod8)
    assert enc.system_fn == (enc.behavior_fn & enc.connector_fn)


def test_enabled_fn_matches_restricted_system_fn():
    # the atoms' local behaviors conjoin to the node of restricting f_B
    # (and f_S) by the whole state; the whole system's survivor function and
    # its groups' class entries (a component's entries are theirs) must be
    # those a fresh encoding computes with its class tables empty, and the
    # groups' union-join the whole system's
    systems = [modulo8(), gen_bus(3), gen_tasks(3, 2), *map(random_system, range(60))]
    for sysm in systems:
        enc, fresh = build(sysm), build(sysm)
        m = enc.manager
        for state in reachable(sysm, bound=300).states:
            asg = enc.state_assignment(state)
            assert active_fn(enc, state) == m.restrict_many(enc.behavior_fn, asg)
            assert active_fn(enc, state) & enc.connector_fn == m.restrict_many(enc.system_fn, asg)
            fn = enc.survivor_fn(state)
            assert enc.survivor_fn(state) == fn
            for c in enc.components:
                _, entries = c.entries(state)
                assert all(map(operator.is_, c.entries(state)[1], entries))
                assert all(map(operator.is_, entries, (g.cls.table[key_of(g, state)] for g in c.groups)))
            for cls in {g.cls for g in port_groups_of(fresh)}:
                cls.table.clear()
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


def _lists_outside_dominator(enc):
    """Does the encoding's closure list a dominator outside its pool?"""
    pr = enc.system.priority
    return isinstance(pr, ExplicitPairs) and bool({hi for _, hi in pr.closure} - enc.system.gamma)


def test_local_conjunction_is_the_folded_one():
    # the survivor function folds every atom's local behavior with f_C,
    # and shifts their fold, the active set, onto the dominators: per port
    # group and for the system-level encoding, port-less atoms, dominators
    # outside the pool, explicit pairs and random systems give the
    # oracle's survivors
    bus = gen_bus(3)
    systems = [bus, gen_tasks(3, 2), pairs_written_out(bus), _dominator_outside_pool(),
               _with_portless_atom(bus), _with_portless_atom(pairs_written_out(gen_bus(2))),
               *map(random_system, range(8)), *(s for s, _ in filter(None, map(with_outside_dominator, range(200))))]
    outside = portless = 0
    for sysm in systems:
        enc = build(sysm)
        m = enc.manager
        encodings = [*(members[0].cls.encoding for members in _classes(enc)), enc]
        outside += any(map(_lists_outside_dominator, encodings))
        portless += any(not atom.ports for atom in sysm.atoms)
        for state in reachable(sysm, bound=300).states:
            assert frozenset(m.iter_models(joined_survivor_fn(enc, state), enc.port_names)) == \
                frozenset(m.iter_models(enc.survivor_fn(state), enc.port_names)) == \
                oracle_survivors(sysm, state) == enc.survivors(state)
    assert outside >= 15 and portless >= 2


def test_portless_atom_steps_and_checks():
    for sysm in (_with_portless_atom(gen_bus(2)), _with_portless_atom(gen_tasks(2, 1))):
        assert validate(sysm) == []
        trace = SymbolicEngine(sysm, seed=5).run(200)
        assert len(trace) == 200 and not trace.deadlocked
        assert check_equivalence(sysm).equivalent


def test_survivor_table_counts_models_over_component_ports():
    # the count the step draws components by is the number of models over
    # the component's own ports, on one- and multi-component systems alike;
    # a component reads its groups' entries and sums their counts (a
    # port-less atom is a component of no group, which counts 0), and an
    # entry's count is 0 exactly when its function is false, which is all
    # the step reads of liveness
    bus = gen_bus(3)
    randoms = [r for r in map(random_system, range(60)) if len(components(r)) > 1]
    for sysm in (bus, pairs_written_out(bus), gen_tasks(3, 2), _with_portless_atom(gen_bus(2)), *randoms):
        enc = build(sysm)
        m = enc.manager
        for state in reachable(sysm, bound=300).states:
            for c in enc.components:
                _, entries = c.entries(state)
                assert all(map(operator.is_, entries, (g.cls.table[key_of(g, state)] for g in c.groups)))
                assert all((e[1] == 0) == (e[0] == m.false) for e in entries)
                fn = joined_survivor_fn(c, state)
                n = len(list(c.manager.iter_models(fn, ports_of(c))))
                assert sum(e[1] for e in entries) == n


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


def _broadcast(k):
    # a trigger atom T (port s) and k receivers, receiver i firing r<i> once;
    # connector s' r0 ... r<k-1>, whose pool has 2^k members, and {s} below
    # {s, r0}: {s} fires only once R0 has fired
    fz = frozenset
    trigger = AtomicBehavior("T", ("t",), "t", ("s",), (Transition("t", fz({"s"}), "t"),))
    receivers = tuple(AtomicBehavior(f"R{i}", ("w", "d"), "w", (f"r{i}",), (Transition("w", fz({f"r{i}"}), "d"),))
                      for i in range(k))
    term = Fusion((Factor(PortLeaf("s"), True), *(Factor(PortLeaf(f"r{i}")) for i in range(k))))
    return SystemModel("broadcast", (trigger, *receivers), (Connector("c", term),),
                       ExplicitPairs(fz({(fz({"s"}), fz({"s", "r0"}))})))


def test_explicit_pairs_never_list_the_pool(monkeypatch):
    # explicit pairs read the active set, not the pool: a broadcast of 64
    # receivers builds and steps with the pool's listing refused
    assert check_equivalence(_broadcast(6)).equivalent

    def refused(system):
        raise AssertionError(f"{system.name}: the pool was listed")

    monkeypatch.setattr(SystemModel, "gamma", property(refused))
    trace = SymbolicEngine(_broadcast(64), seed=7).run(1000)
    assert len(trace) == 1000 and not trace.deadlocked
    state = trace.initial
    for a, after in trace.steps:
        ready = {f"r{i - 1}" for i, q in enumerate(state) if q == "w"}
        assert "s" in a and a - {"s"} <= ready and (a != {"s"} or "r0" not in ready)
        state = after
    assert state == ("t", *("d",) * 64)


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
    assert [g.system.all_ports for g in c.groups] == [("x", "y")]
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
    assert [len(c) for c in port_groups(pairs_written_out(gen_tasks(8, 2)))] == [2]
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


def test_partition_hands_each_connector_and_pair_to_one_group():
    # every connector with ports is handed to exactly one group, which
    # holds its whole support, and so is every closure pair with its
    # lo | hi; the groups' ports are disjoint, in port order, and cover the
    # system's; a group's owners are its ports' owners and lie in its
    # component, whose index the encoding keeps for each of their atoms
    fz = frozenset
    families = [modulo8(), gen_bus(3), gen_bus(16), gen_tasks(3, 2), gen_tasks(8, 4), _two_loops(None),
                pairs_written_out(gen_tasks(3, 2)), pairs_written_out(gen_tasks(8, 2)), _three_atoms(),
                _three_atoms(ExplicitPairs(fz({(fz("v"), fz("z"))}))), *map(hub_system, range(20))]
    for sysm in [*families, *map(random_system, range(120)), *map(cell_system, range(120))]:
        parts, component_of = symbolic._partition(sysm)
        closure = sysm.priority.closure if isinstance(sysm.priority, ExplicitPairs) else frozenset()
        conns, pairs, ports = [], [], []
        for k, (atoms, groups) in enumerate(parts):
            assert atoms == [i for i, c in enumerate(component_of) if c == k]
            for owners, group, on, among in groups:
                assert group == sorted(group, key=sysm.all_ports.index)
                assert owners == sorted({sysm.port_owner[p] for p in group})
                assert {component_of[i] for i in owners} == {k}
                assert on == sorted(on) and all(sysm.connectors[i].port_set <= set(group) for i in on)
                assert all(lo | hi <= set(group) for lo, hi in among)
                conns += on
                pairs += among
                ports += group
        assert sorted(conns) == [i for i, c in enumerate(sysm.connectors) if c.port_set], sysm.name
        assert len(pairs) == len(closure) and set(pairs) == closure, sysm.name
        assert sorted(ports, key=sysm.all_ports.index) == list(sysm.all_ports), sysm.name
        assert build(sysm).component_of == component_of


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
    # the tasks form one orbit: the canonical local state sorts their
    # values ("c2" < "s"), and the key tells only how many tasks hold each
    permuted = ("s", "s", "c2", *state[3:])
    assert one.canonical(waiting) == one.canonical(running) == one.canonical(permuted) == ("c2", "s", "s", "l0")
    assert key_of(one, waiting) == key_of(one, running) == key_of(one, permuted) != key_of(one, state)
    # the processors' groups form one class, encoded over processor 1's
    # group: processor 2's group reads its one table at the states of
    # processor 1's group where its tasks offer the same ranked labels
    assert two.cls is one.cls and one.cls.encoding.system is one.system
    assert two.canonical(waiting) == ("s", "s", "w1", "l0")
    assert two.canonical(running) == ("c1", "s", "s", "l0")
    assert key_of(two, waiting) == key_of(one, ("w1", *state[1:]))
    assert key_of(two, running) == key_of(one, ("c1", *state[1:]))
    # the occupancy field names the task whose value each position holds,
    # as a stable sort of the values does
    assert _owners(c, two, waiting) == oracle_orient(two, waiting) == [1, 2, 0, 3]
    c.entries(waiting)
    c.entries(running)
    assert len(one.cls.table) == 3


def test_one_survivor_table_per_class():
    # bus16's clusters form one class, encoded over the first cluster: after
    # a run its one table holds at most one entry per state of a cluster
    # that a run meets (16 at seed 7)
    engine = SymbolicEngine(gen_bus(16), seed=7)
    engine.run(2000)
    groups = port_groups_of(engine.encoding)
    (cls,) = {g.cls for g in groups}
    assert len(groups) == 16 and cls.encoding.system is groups[0].system
    assert 0 < len(cls.table) <= 16


def test_survivor_fn_is_entered_once_per_class_table_miss(monkeypatch):
    # the step and the check read a class table first and enter
    # survivor_fn only through the class's fill at a key the table does not
    # hold, which fills it
    entered, filled = [], []
    survivor_fn, fill = SystemEncoding.survivor_fn, symbolic.GroupClass.fill

    def counted(self, state, key):
        assert key not in self.table
        filled.append(key)
        return fill(self, state, key)

    monkeypatch.setattr(SystemEncoding, "survivor_fn", lambda self, state: entered.append(self) or survivor_fn(self, state))
    monkeypatch.setattr(symbolic.GroupClass, "fill", counted)
    systems = (gen_bus(4), gen_tasks(4, 2), pairs_written_out(gen_tasks(3, 2)))
    for sysm in systems:
        engine, checked = SymbolicEngine(sysm, seed=7), build(sysm)
        for enc, run in ((engine.encoding, lambda: engine.run(500)),
                         (checked, lambda: check_equivalence(sysm, encoding=checked))):
            del entered[:], filled[:]
            run()
            assert len(entered) == len(filled) == sum(len(members[0].cls.table) for members in _classes(enc)) > 0


def test_an_encoding_is_only_functions():
    # survivor_fn computes a function and keeps nothing: on a fresh build,
    # calling it for the whole system and for each class encoding, at up
    # to 50 reachable states, leaves every class table as it was, the
    # entries the components read at the initial state included; only a
    # class keeps a table
    for sysm in (gen_tasks(3, 2), gen_bus(3), pairs_written_out(gen_tasks(3, 2)), modulo8()):
        enc = build(sysm)
        classes = {g.cls for g in port_groups_of(enc)}
        for c in enc.components:
            c.entries(sysm.initial_state())
        before = {cls: dict(cls.table) for cls in classes}
        assert all(before.values())
        for state in reachable(sysm, bound=50).states:
            enc.survivor_fn(state)
            for cls in classes:
                cls.encoding.survivor_fn(own_state(cls.encoding, sysm, state))
        assert all(cls.table.keys() == before[cls].keys() and all(map(operator.is_, cls.table.values(),
                                                                        before[cls].values())) for cls in classes)
        assert not any(hasattr(e, "survivor_table") for e in (enc, *(cls.encoding for cls in classes)))


def test_one_class_entry_gives_each_group_its_copy():
    # at the initial state of tasks 3x2 both processors' groups read one
    # class entry; each translates its models onto its own ports, and the
    # component counts the entry once per group
    sysm = gen_tasks(3, 2)
    state = sysm.initial_state()
    enc = build(sysm)
    (c,) = enc.components
    one, two = c.groups
    _, (first, second) = c.entries(state)
    assert first is second and first[1] > 0
    models = list(enc.manager.iter_models(first[0], one.system.all_ports))
    assert [_read_model(one, m, c, state) for m in models] == models
    assert [{_read_model(g, m, c, state) for m in models} for g in c.groups] == \
        [{a for a in survivors(sysm, state) if a <= set(g.system.all_ports)} for g in c.groups]
    assert first[1] + second[1] == 2 * first[1] == len(survivors(sysm, state))


def _cluster_changed(change):
    """bus2, and bus2 with its pairs written out, each passed through
    `change`, which changes the second cluster."""
    return change(gen_bus(2)), change(pairs_written_out(gen_bus(2)))


def _classes(enc):
    """The groups of each class, the classes in the order of their first groups."""
    classes: dict = {}
    for g in port_groups_of(enc):
        classes.setdefault(g.cls, []).append(g)
    return list(classes.values())


def _read_model(g, model, c=None, state=None):
    """A model of `g`'s class entry, as the representative's true port
    names, read onto g's ports as the engine reads it: where the class has
    no orbits in `Group.by_model`; else through `Group.read`, at
    `state`'s occupancy field in g's component `c`.  The result is checked
    against the places of the model's ports (each port's owner position
    and index among that owner's ports, built here from the
    representative's atoms) read through g's owners as a stable sort of
    each orbit by value orders them (`oracle_orient`)."""
    place = {p: (k, i) for k, atom in enumerate(g.cls.encoding.system.atoms) for i, p in enumerate(atom.ports)}
    if g.cls.orbits:
        perm = oracle_orient(g, state)
        packed, entries = c.entries(state)
        k = c.groups.index(g)
        a = g.read(packed >> c._occupancy[k], entries[k][2], map(g.cls.place.__getitem__, model))
    else:
        perm, a = range(len(g.system.atoms)), g.by_model[model]
    assert a == frozenset([g.system.atoms[perm[k]].ports[i] for k, i in map(place.__getitem__, model)])
    return a


def _owners(c, g, state):
    """Per canonical position of `g`, a group of component `c`, the owner
    position whose ports `Group.read` takes at `state`."""
    firsts = [a.ports[0] for a in g.system.atoms]
    return [firsts.index(next(iter(_read_model(g, frozenset([a.ports[0]]), c, state))))
            for a in g.cls.encoding.system.atoms]


def test_isomorphic_groups_form_one_class():
    # every port group of the benchmark's systems is a copy of the first
    # under an order-preserving rename of its ports
    for sysm, n in ((gen_bus(16), 16), (gen_tasks(8, 4), 4), (pairs_written_out(gen_tasks(8, 2)), 2)):
        enc = build(sysm)
        (members,) = _classes(enc)
        assert len(members) == n
        rep, other = members[0].cls.encoding, members[-1]
        (c,) = [c for c in enc.components if other in c.groups]
        m, init = rep.manager, sysm.initial_state()  # each orbit's owners in position order
        assert oracle_orient(other, init) == list(range(len(rep.system.atoms)))
        assert {_read_model(other, a, c, init) for a in m.iter_models(rep.connector_fn, rep.port_names)} == \
            set(m.iter_models(SystemEncoding(other.system, m).connector_fn, other.system.all_ports))


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

    assert [len(_classes(build(s))) for s in (gen_bus(2), pairs_written_out(gen_bus(2)))] == [1, 1]
    cases = [*_cluster_changed(lambda s: moved_trigger(s, "bus_2")), *_cluster_changed(extra_label),
             *_cluster_changed(owners_swapped)]
    cases += [change(pairs_written_out(gen_bus(2))) for change in (pair_dropped, outside_dominator)]
    for sysm in cases:
        assert [len(members) for members in _classes(build(sysm))] == [1, 1]
        assert check_equivalence(sysm).equivalent


def _t1_t2_swap(g):
    """Whether T1 and T2 lie in one orbit of a tasks 3x2 group g: the keys
    of T1 running on g's processor and of T2 running there agree."""
    c = "c" + g.system.atoms[-1].name[1:]  # running on g's processor
    return key_of(g, (c, "s", "s", "l0", "l0")) == key_of(g, ("s", c, "s", "l0", "l0"))


def test_orbit_keys_give_each_state_its_survivors():
    # the tasks of each tasks group form one orbit, whose values the
    # canonical local state sorts; a bus cluster has none, and its canonical
    # local state is its owners' states; the translated survivors are the
    # system's at every reachable state (every state of the hub systems)
    named = [gen_tasks(3, 2), gen_tasks(4, 2), gen_bus(3), pairs_written_out(gen_tasks(3, 2))]
    cases = [(s, reachable(s, bound=5000).states) for s in named]
    cases += [(h, all_states(h)) for h in map(hub_system, range(40))]
    oriented = 0
    for sysm, states in cases:
        enc = build(sysm)
        oriented += sum(bool(g.cls.orbits) for g in port_groups_of(enc))
        for state in states:
            assert enc.survivors(state) == survivors(sysm, state)
    assert oriented >= 6
    tasks = build(gen_tasks(4, 2))
    for g in port_groups_of(tasks):
        key, local = key_of(g, ("c1", "s", "w2", "s", "l0", "l0")), g.canonical(("c1", "s", "w2", "s", "l0", "l0"))
        assert all(key_of(g, (*p, "l0", "l0")) == key and g.canonical((*p, "l0", "l0")) == local
                   for p in (("s", "c1", "s", "w2"), ("w2", "s", "s", "c1"), ("s", "w2", "c1", "s")))
    bus = gen_bus(16)
    groups = port_groups_of(build(bus))
    for state in (bus.initial_state(), *(s for _, s in SymbolicEngine(bus, seed=3).run(50).steps)):
        for g in groups:
            assert not g.cls.orbits and g.canonical(state) == own_state(g, bus, state)


def test_integer_keys_agree_exactly_when_canonical_local_states_do():
    # a group's key reads its owners' states only, so every combination of
    # them (the other atoms at their initial states) covers each reachable
    # state's; bus5-moved3 has at least 2*10^5 reachable states, its clusters
    # 16 combinations each
    for sysm in (gen_tasks(3, 2), gen_tasks(4, 2), moved_trigger(gen_bus(5), "bus_3")):
        for g in port_groups_of(build(sysm)):
            at = [i for i, a in enumerate(sysm.atoms) if a.port_set & set(g.system.all_ports)]
            init, pairs = sysm.initial_state(), set()
            for local in product(*(sysm.atoms[i].states for i in at)):
                state = list(init)
                for i, q in zip(at, local):
                    state[i] = q
                pairs.add((key_of(g, tuple(state)), g.canonical(tuple(state))))
            keys, locals_ = {k for k, _ in pairs}, {c for _, c in pairs}
            assert len(keys) == len(locals_) == len(pairs) > 1


def test_swaps_that_are_not_symmetries_keep_apart():
    # tasks 3x2 with one of processor 1's connectors, transitions or pairs
    # changed for T1 and T2: the two stay out of one orbit of processor 1's
    # group (so do the others the change touches), processor 2's group
    # keeps its orbit, and the engines still agree
    fz = frozenset
    tasks, pairs = gen_tasks(3, 2), pairs_written_out(gen_tasks(3, 2))

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
        m = enc.manager
        own = {g: SystemEncoding(g.system, m) for g in port_groups_of(enc)}  # each group's sub-system on its own
        copies += sum(g.cls.encoding.system is not g.system for g in port_groups_of(enc))
        seen = set()
        for c in enc.components:
            for state in states:
                for g, e in zip(c.groups, c.entries(state)[1]):
                    sub, key = own[g], own_state(g, sysm, state)
                    if (sub.port_names, key) not in seen:
                        seen.add((sub.port_names, key))
                        assert {_read_model(g, a, c, state) for a in m.iter_models(e[0], g.cls.encoding.port_names)} == \
                            set(m.iter_models(whole_survivor_fn(sub, key), sub.port_names))
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
    cases = [(s, reachable(s, bound=300).states) for s in (*named, *map(pairs_written_out, named))]
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
                    if all(key_of(g, state) in g.cls.table for g in c.groups):
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
    for sysm in (tasks, gen_bus(4), pairs_written_out(tasks)):
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
    live = {k for k, c in enumerate(enc.components) if any(e[1] for e in c.entries(state)[1])}
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


def test_draw_is_the_choices_draw_and_skips_zero_counts():
    # the one weighted draw of the step and the pick: over counts with
    # zeros at the front, in the middle and at the end, it draws the index
    # `choices` draws over all counts, leaving the generator as `choices`
    # does, which is the index a draw over the positive counts alone maps
    # back to
    gen = random.Random(30)
    vectors = [[0, 0, 3, 1], [2, 0, 0, 5], [1, 4, 0, 0], [0, 1, 0, 2, 0, 0, 7, 0], [0, 0, 9, 0], [6], [2**40, 0, 3]]
    vectors += [v for v in ([gen.choice((0, 0, 1, 2, 7)) for _ in range(gen.randrange(1, 10))] for _ in range(60))
                if any(v)]
    for counts in vectors:
        live = [k for k, c in enumerate(counts) if c]
        cum = list(accumulate(counts[k] for k in live))
        for seed in range(50):
            ours, ref, positive = random.Random(seed), random.Random(seed), random.Random(seed)
            k = symbolic._draw(counts, ours)
            assert k == ref.choices(range(len(counts)), counts)[0]
            assert ours.getstate() == ref.getstate()
            assert k == live[bisect(cum, positive.random() * cum[-1], 0, len(cum) - 1)]


def test_zero_components_deadlock_on_the_first_step():
    # a system with no atom has no component: no count is positive, so
    # both engines report deadlock at once
    sysm = parse("system e { }")
    assert build(sysm).components == ()
    for engine in (SymbolicEngine(sysm, seed=1), EnumEngine(sysm, seed=1)):
        assert engine.step() is None and engine.steps_taken == 0
        assert engine.run(5).deadlocked


def test_incremental_step_equals_a_full_read():
    # after a step the encoding's kept read is at the state it fired to,
    # and the step re-read only the component it drew: at every step the
    # kept entries and counts must be those of a fresh read of every
    # component, also after a reset and after the state is set from
    # outside, and it must fire what an engine that reads every component
    # at every step fires
    randoms = [r for r in map(random_system, range(400))
               if len(components(r)) > 1 and len(reachable(r, bound=10).states) > 2]
    assert len(randoms) >= 5
    for sysm in (gen_bus(3), gen_bus(16), *randoms):
        eng, full = SymbolicEngine(sysm, seed=5), SymbolicEngine(sysm, seed=5)
        enc = eng.encoding

        def steps(n):
            for _ in range(n):
                full.encoding._last = None  # no kept read: the step reads every component
                result = eng.step()
                assert result == full.step()
                fresh = [c.entries(eng.state) for c in enc.components]
                assert enc._last is eng.state
                assert [(p, list(map(id, es))) for p, es in enc._reads] == [(p, list(map(id, es))) for p, es in fresh]
                assert enc._counts == [sum(e[1] for e in es) for _, es in fresh]
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
    # the component the second moved and finds no component live; the
    # second step, with one positive count of two, tosses no coin
    fz = frozenset
    atoms = tuple(AtomicBehavior(n, ("s", "t"), "s", (p,), (Transition("s", fz(p), "t"),))
                  for n, p in (("A", "x"), ("B", "y")))
    sysm = SystemModel("ab", atoms, tuple(Connector(p, PortLeaf(p)) for p in "xy"))
    eng = SymbolicEngine(sysm, seed=0)
    assert len(eng.encoding.components) == 2
    first = eng.step()[0]
    coins = eng._rng.getstate()
    assert {first, eng.step()[0]} == {fz("x"), fz("y")}
    assert eng._rng.getstate() == coins
    assert eng.step() is None and eng.step() is None
    assert eng.state == ("t", "t")
    eng.reset()
    assert len(eng.run(5)) == 2


def test_pick_tosses_a_coin_whenever_a_component_has_groups_to_draw():
    # one component of two port groups, {x1, y} and {x2, z}, which share
    # A: once B has fired y, only the second group has a survivor, and
    # the component's pick still draws its group with a coin (the step's
    # draw among components does not, as there is one)
    fz = frozenset
    a = AtomicBehavior("A", ("s",), "s", ("x1", "x2"), (Transition("s", fz(["x1"]), "s"), Transition("s", fz(["x2"]), "s")))
    b = AtomicBehavior("B", ("b0", "b1"), "b0", ("y",), (Transition("b0", fz("y"), "b1"),))
    c = AtomicBehavior("C", ("c",), "c", ("z",), (Transition("c", fz("z"), "c"),))
    conns = (Connector("k1", Fusion((Factor(PortLeaf("x1")), Factor(PortLeaf("y"))))),
             Connector("k2", Fusion((Factor(PortLeaf("x2")), Factor(PortLeaf("z"))))))
    eng = SymbolicEngine(SystemModel("abc", (a, b, c), conns), seed=0)
    (comp,) = eng.encoding.components
    assert len(comp.groups) == 2
    eng.state = ("s", "b1", "c")
    coins = random.Random()
    coins.setstate(eng._rng.getstate())
    assert eng.step()[0] == fz(["x2", "z"])
    coins.random()
    assert eng._rng.getstate() == coins.getstate()


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


def test_symbolic_steps_never_enumerate_the_pool():
    for sysm in (gen_tasks(4, 2), gen_bus(3)):
        trace = SymbolicEngine(sysm, seed=3).run(500)
        assert len(trace) == 500
        assert "gamma" not in sysm.__dict__


def test_survivors_list_each_class_entry_once(monkeypatch):
    # `Component.survivors` keeps an entry's models in it: as names where
    # the class has no orbits; where it has, each as the places of its
    # ports (`GroupClass.place`, which only such a class has), after the
    # fill's one read per canonical position; with nothing after them:
    # however many states and groups read an entry, it is enumerated once,
    # and the step, which picks, enumerates none
    for sysm in (gen_bus(3), gen_tasks(3, 2), pairs_written_out(gen_bus(3))):
        enc = build(sysm)
        listed = []
        iter_models = enc.manager.iter_models
        monkeypatch.setattr(enc.manager, "iter_models", lambda f, names: listed.append(f) or iter_models(f, names))
        report = check_equivalence(sysm, encoding=enc)
        entries = [(members[0].cls, e) for members in _classes(enc) for e in members[0].cls.table.values()]
        assert report.equivalent and len(listed) == len(entries) < report.states_checked
        assert all(e[3 if cls.orbits else 2] == [m if not cls.orbits else tuple(map(cls.place.__getitem__, m))
                                                 for m in iter_models(e[0], cls.encoding.port_names)]
                   for cls, e in entries)
        assert all(hasattr(cls, "place") == bool(cls.orbits) and len(e) == 3 + bool(cls.orbits)
                   and (not cls.orbits or len(e[2]) == len(cls.firsts)) for cls, e in entries)
        engine = SymbolicEngine(sysm, seed=3)
        monkeypatch.setattr(engine.encoding.manager, "iter_models", None)
        assert len(engine.run(200)) == 200


def test_a_class_entry_keeps_each_groups_own_survivors():
    # bus3's clusters form one class without orbits, and at the initial
    # state every cluster reads one entry at one key; each group reads the
    # entry's one list of names onto its own ports, so each cluster's
    # survivors are its own ports (a list kept per class would hand every
    # cluster the first one's)
    sysm = gen_bus(3)
    state = sysm.initial_state()
    enc = build(sysm)
    groups = port_groups_of(enc)
    assert len({g.cls for g in groups}) == 1 and all(not g.cls.orbits for g in groups)
    assert len({key_of(g, state) for g in groups}) == 1
    for _ in range(2):  # the second read reuses the entry's listed names
        got = [(g, c.survivors(*c.entries(state))) for c in enc.components for g in c.groups]
        for g, listed in got:
            ours = set(g.system.all_ports)
            assert listed and all(a <= ours for a in listed)
            assert set(listed) == {a for a in survivors(sysm, state) if a <= ours}
    assert enc.survivors(state) == survivors(sysm, state)


def test_kept_survivor_lists_agree_at_every_reachable_state():
    # the encoding's survivors equal the reference's at every reachable
    # state, read on a fresh encoding and on one whose entries a run of the
    # engine filled first, so that entries and their listed models are
    # filled in another order; one walk reads the reference once per state
    systems = [gen_bus(3), gen_bus(4), modulo8(), *map(random_system, range(120))]
    kept = 0
    for sysm in systems:
        engine = SymbolicEngine(sysm, seed=5)
        engine.run(500)
        encodings = (build(sysm), engine.encoding)

        def expand(state):
            want = survivors(sysm, state)
            assert all(enc.survivors(state) == want for enc in encodings), (sysm.name, state)
            return (t for a in want for t in successors(sysm, state, a))

        assert not walk(sysm, 10**5, expand).truncated
        kept += sum(len(e) > 2 for enc in encodings for cls in {g.cls for g in port_groups_of(enc)}
                    if not cls.orbits for e in cls.table.values())
    assert kept > 100


def test_orbit_free_groups_hand_out_one_object_per_interaction():
    # where a class has no orbits, each group maps a model of its class's
    # entries, keyed as `pick_sat` and `iter_models` give it, to its own
    # interaction (`Group.by_model`): a pick translates a model only on its
    # first read, and `survivors` lists the same objects that the step fires
    mapped = 0
    for sysm in (gen_bus(3), *map(random_system, range(120))):
        engine = SymbolicEngine(sysm, seed=5)
        trace = engine.run(500)
        enc = engine.encoding
        assert check_equivalence(sysm, encoding=enc).equivalent
        state = sysm.initial_state()
        for a, after in trace.steps:
            assert a in survivors(sysm, state)
            assert any(x is a for x in enc.survivors(state)), (sysm.name, state, a)
            for c in enc.components:
                packed, entries = c.entries(state)
                if any(e[1] for e in entries):
                    first = c.pick(packed, entries, random.Random(1))
                    assert c.pick(packed, entries, random.Random(1)) is first
            state = after
        groups = port_groups_of(enc)
        assert all(not g.cls.orbits for g in groups)
        for g in groups:
            ours = set(g.system.all_ports)
            assert all(a in sysm.gamma and a <= ours for a in g.by_model.values())
            assert all(_read_model(g, m) is a for m, a in list(g.by_model.items()))
        mapped += sum(len(g.by_model) for g in groups)
    assert mapped > 100
