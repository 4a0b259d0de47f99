"""Core model: activation, priority filtering, stepping, reachability."""

import dataclasses
import random

import pytest

from portsync.connectors import (
    Factor, Fusion, OneLeaf, PortLeaf, ZeroLeaf, fusion, interaction_key, interactions_of, support, template_of,
)
from portsync.model import (
    AtomicBehavior,
    Connector,
    Diagnostic,
    ExplicitPairs,
    MaximalProgress,
    NotEnabledError,
    SystemModel,
    Transition,
    ValidationError,
    act,
    effective_pairs,
    enabled,
    filter_priority,
    reachable,
    step,
    successors,
    survivors,
    validate,
    walk,
)
from portsync import model
from portsync.dsl import parse, serialize
from portsync.enumerative import EnumEngine
from portsync.equivalence import check_equivalence
from portsync.generators import gen_bus, gen_tasks, modulo8, random_monomial_term, random_system
from portsync.symbolic import SymbolicEngine

from oracles import _oracle_pairs, all_states, hub_system, oracle_enabled, oracle_successors, oracle_survivors, reference_walk


def fz(*names):
    return frozenset(names)


class TestModulo8Basics:
    def test_gamma(self, mod8):
        assert mod8.gamma == {
            fz("p"), fz("p", "q", "r"),
            fz("p", "q", "r", "s", "t"),
            fz("p", "q", "r", "s", "t", "u"),
        }

    def test_initial_enabled(self, mod8):
        s0 = mod8.initial_state()
        assert s0 == ("l1", "l3", "l5")
        assert enabled(mod8, s0) == {fz("p")}

    def test_act_checks_every_participant(self, mod8):
        assert act(mod8, ("l2", "l3", "l5"), fz("p", "q", "r"))
        assert not act(mod8, ("l1", "l3", "l5"), fz("p", "q", "r"))

    def test_act_rejects_foreign_ports(self, mod8):
        with pytest.raises(ValueError):
            act(mod8, mod8.initial_state(), fz("nope"))

    def test_input_checks_name_the_fault(self, mod8):
        # a foreign port is named, whether or not the rest of the
        # interaction is in the pool, and a state must have one entry per atom
        s0 = mod8.initial_state()
        for call in (act, step, successors):
            for a in (fz("nope"), fz("p", "nope")):
                with pytest.raises(ValueError, match="port 'nope' does not belong to the system"):
                    call(mod8, s0, a)
            for state in (s0[:2], (*s0, "l1")):
                with pytest.raises(ValueError, match="state arity"):
                    call(mod8, state, fz("p"))

    def test_shares_split_an_interaction_in_atom_order(self, mod8):
        # each share carries its owner's move table for it: the atom's own
        # where the share is one of its labels, else an empty one
        a = fz("u", "t", "r", "q", "p")
        shares = mod8.shares(a)
        assert [(i, s) for i, s, _ in shares] == [(0, fz("p", "q")), (1, fz("r")), (2, fz("t", "u"))]
        assert all(table is mod8.atoms[i].moves[s] for i, s, table in shares)
        assert mod8.shares(a) is shares
        assert mod8.shares(frozenset()) == ()
        for sysm in map(random_system, range(20)):
            for a in sysm.gamma:
                shares = sysm.shares(a)
                assert [(i, s) for i, s, _ in shares] == \
                    [(i, a & atom.port_set) for i, atom in enumerate(sysm.atoms) if a & atom.port_set]
                # a share that is one of its atom's labels is the label itself
                assert all(s is sysm.atoms[i].label_of.get(s, s) for i, s, _ in shares)
                assert all(table is sysm.atoms[i].moves[s] if s in sysm.atoms[i].moves else table == {}
                           for i, s, table in shares)
        # one triple object per (atom, share), however many interactions
        # hold it: tasks8x4's 512 pool members have 1,472 owners
        tasks = gen_tasks(8, 4)
        for sysm in (tasks, mod8, *map(random_system, range(20))):
            triples, owners = {}, 0
            for a in sysm.gamma:
                for triple in sysm.shares(a):
                    assert triples.setdefault(triple[:2], triple) is triple
                    owners += 1
            assert sysm is not tasks or (owners, len(triples)) == (1472, 136)

    def test_maxprog_pairs(self, mod8):
        pairs = effective_pairs(mod8.priority, mod8.gamma)
        assert len(pairs) == 6  # strict subset pairs among 4 chained sets
        assert (fz("p"), fz("p", "q", "r")) in pairs

    def test_step_and_successors(self, mod8):
        s0 = mod8.initial_state()
        nxt = step(mod8, s0, fz("p"))
        assert nxt == ("l2", "l3", "l5")
        assert successors(mod8, s0, fz("p")) == {("l2", "l3", "l5")}

    def test_empty_interaction_is_identity(self, mod8):
        s0 = mod8.initial_state()
        assert step(mod8, s0, frozenset()) == s0
        assert successors(mod8, s0, frozenset()) == {s0}

    def test_step_requires_enabled_pool_member(self, mod8):
        s0 = mod8.initial_state()
        with pytest.raises(NotEnabledError):
            step(mod8, s0, fz("p", "q", "r"))  # in gamma, not enabled
        with pytest.raises(NotEnabledError):
            step(mod8, s0, fz("q"))  # not in gamma at all

    def test_reachable_is_the_full_cycle(self, mod8):
        r = reachable(mod8)
        assert len(r.states) == 8
        assert not r.truncated

    def test_reachable_bound_truncates(self, mod8):
        r = reachable(mod8, bound=3)
        assert r.truncated
        assert len(r.states) == 3


class TestPriorityFiltering:
    def test_broadcast_maximal_progress(self, broadcast_system):
        s0 = broadcast_system.initial_state()
        en = enabled(broadcast_system, s0)
        assert len(en) == 8
        assert survivors(broadcast_system, s0) == {fz("s", "r1", "r2", "r3")}

    def test_filter_drops_dominated_candidates(self, broadcast_system):
        # both candidates lose to the active full broadcast
        pool = {fz("s", "r1"), fz("s", "r2")}
        kept = filter_priority(broadcast_system,
                               broadcast_system.initial_state(), pool)
        assert kept == frozenset()

    def test_explicit_pairs_closure(self):
        a, b, c = fz("x"), fz("y"), fz("z")
        pr = ExplicitPairs((( a, b), (b, c)))
        assert (a, c) in pr.closure

    def test_dominator_outside_gamma_is_activity_checked(self):
        # y dominates x but no connector offers y; x still loses while
        # the y transition is locally active
        atom = AtomicBehavior(
            "A", ("s0", "s1"), "s0", ("x", "y"),
            (Transition("s0", fz("x"), "s1"),
             Transition("s0", fz("y"), "s1")),
        )
        sysm = SystemModel(
            "m", (atom,),
            (Connector("cx", PortLeaf("x")),),
            ExplicitPairs(((fz("x"), fz("y")),)),
        )
        assert validate(sysm) == []
        assert survivors(sysm, ("s0",)) == frozenset()
        assert enabled(sysm, ("s0",)) == {fz("x")}


class TestValidation:
    def good(self):
        return modulo8()

    def test_clean_system(self):
        assert validate(self.good()) == []

    def check(self, sysm, fragment):
        diags = validate(sysm)
        assert diags, f"expected a diagnostic mentioning {fragment!r}"
        assert any(fragment in str(d) for d in diags)

    def test_duplicate_atom_names(self):
        a = AtomicBehavior("A", ("s",), "s", ("p",),
                           (Transition("s", fz("p"), "s"),))
        b = AtomicBehavior("A", ("t",), "t", ("q",),
                           (Transition("t", fz("q"), "t"),))
        self.check(SystemModel("m", (a, b),
                               (Connector("c", PortLeaf("p")),), None), "A")

    def test_bad_init_state(self):
        a = AtomicBehavior("A", ("s",), "nope", ("p",),
                           (Transition("s", fz("p"), "s"),))
        self.check(SystemModel("m", (a,),
                               (Connector("c", PortLeaf("p")),), None), "nope")

    def test_overlapping_ports(self):
        a = AtomicBehavior("A", ("s",), "s", ("p",),
                           (Transition("s", fz("p"), "s"),))
        b = AtomicBehavior("B", ("t",), "t", ("p",),
                           (Transition("t", fz("p"), "t"),))
        self.check(SystemModel("m", (a, b),
                               (Connector("c", PortLeaf("p")),), None), "p")

    def test_unbound_connector_port(self):
        a = AtomicBehavior("A", ("s",), "s", ("p",),
                           (Transition("s", fz("p"), "s"),))
        self.check(SystemModel("m", (a,),
                               (Connector("c", PortLeaf("zz")),), None), "zz")

    def test_transition_label_must_use_own_ports(self):
        a = AtomicBehavior("A", ("s",), "s", ("p",),
                           (Transition("s", fz("q"), "s"),))
        self.check(SystemModel("m", (a,),
                               (Connector("c", PortLeaf("p")),), None), "q")

    def test_priority_cycle_rejected(self):
        a = AtomicBehavior("A", ("s",), "s", ("p", "q"),
                           (Transition("s", fz("p"), "s"),
                            Transition("s", fz("q"), "s"),))
        sysm = SystemModel(
            "m", (a,),
            (Connector("cp", PortLeaf("p")), Connector("cq", PortLeaf("q"))),
            ExplicitPairs(((fz("p"), fz("q")), (fz("q"), fz("p")))),
        )
        diags = validate(sysm)
        assert diags
        with pytest.raises(ValidationError):
            from portsync.symbolic import build
            build(sysm)

    def test_reflexive_pair_rejected(self):
        a = AtomicBehavior("A", ("s",), "s", ("p",),
                           (Transition("s", fz("p"), "s"),))
        sysm = SystemModel(
            "m", (a,), (Connector("cp", PortLeaf("p")),),
            ExplicitPairs(((fz("p"), fz("p")),)),
        )
        assert validate(sysm)

    def test_connector_naming_a_port_twice(self):
        # a' [b b']: the causal tree a -> b -> b drops b's rule as vacuous,
        # so the encoding would lose {a, b}; each port occurs once in a term
        atoms = tuple(AtomicBehavior(n, ("q",), "q", (p,), (Transition("q", fz(p), "q"),)) for n, p in (("A", "a"), ("B", "b")))
        twice = Fusion((Factor(PortLeaf("a"), True), Factor(Fusion((Factor(PortLeaf("b")), Factor(PortLeaf("b"), True))))))
        sysm = SystemModel("m", atoms, (Connector("x", twice),), MaximalProgress())
        assert [str(d) for d in validate(sysm)] == ["connector x: port 'b' named more than once [linear-term]"]
        for refuse in (EnumEngine, SymbolicEngine, check_equivalence):
            with pytest.raises(ValidationError, match="port 'b' named more than once"):
                refuse(sysm)

    def test_unknown_priority_kind(self):
        # a priority that is neither kind is refused by every caller alike
        sysm = dataclasses.replace(gen_bus(2), priority="maximal")
        assert validate(sysm) == [Diagnostic("priority-kind", "priority", "unknown priority kind 'maximal'")]
        for refuse in (EnumEngine, SymbolicEngine, check_equivalence):
            with pytest.raises(ValidationError, match=r"unknown priority kind 'maximal' \[priority-kind\]"):
                refuse(sysm)

    @staticmethod
    def one_atom(name="m", atom="A", state="s", port="p", conn="c", states=None, ports=None, label=None):
        # one atom with a self-loop on one port, bound by one connector
        label = frozenset({port}) if label is None else label
        states = (state,) if states is None else states
        trans = tuple(Transition(s, label, s) for s in states)
        a = AtomicBehavior(atom, states, state, (port,) if ports is None else ports, trans)
        return SystemModel(name, (a,), (Connector(conn, PortLeaf(port)),), None)

    @pytest.mark.parametrize("fields, found", [
        ({"name": "1m"}, [("name-format", "system '1m'")]),
        ({"atom": "A-1"}, [("name-format", "atom A-1")]),
        ({"state": "s t"}, [("name-format", "atom A")]),
        ({"port": "p.q"}, [("name-format", "atom A")]),
        ({"conn": "c d"}, [("name-format", "connector c d")]),
        ({"states": ()}, [("nonempty-states", "atom A")]),
        ({"ports": ("p", "p")}, [("unique-ports", "atom A"), ("disjoint-ports", "atom A")]),
        ({"label": frozenset()}, [("nonempty-label", "atom A trans #1 s->s")]),
    ])
    def test_each_structural_diagnostic(self, fields, found):
        assert validate(self.one_atom()) == []
        assert [(d.invariant, d.location) for d in validate(self.one_atom(**fields))] == found


class TestAgainstProductOracle:
    """enabled/survivors equal a direct product-automaton reading."""

    def run_system(self, sysm):
        for state in all_states(sysm):
            assert enabled(sysm, state) == oracle_enabled(sysm, state)
            assert survivors(sysm, state) == oracle_survivors(sysm, state)

    def test_modulo8(self, mod8):
        self.run_system(mod8)

    def test_broadcast(self, broadcast_system):
        self.run_system(broadcast_system)

    def test_bus1(self):
        self.run_system(gen_bus(1))

    def test_random_small(self):
        for seed in range(20):
            self.run_system(random_system(seed))


def test_successors_match_oracle_on_random_systems():
    # every owning atom's nondeterministic targets are expanded; a pool
    # interaction that is not enabled raises
    branching = 0
    for sysm in map(random_system, range(60)):
        for state in reachable(sysm, bound=300).states:
            for a in sysm.gamma:
                want = oracle_successors(sysm, state, a)
                assert act(sysm, state, a) == bool(want)
                if want:
                    assert successors(sysm, state, a) == want
                    assert step(sysm, state, a, random.Random(0)) in want
                    branching += len(want) > 1
                else:
                    with pytest.raises(NotEnabledError):
                        successors(sysm, state, a)
    assert branching > 0


NONDETERMINISTIC = """system forks {
  atom A {
    ports x, y;
    states a0 init, a1, a2;
    trans a0 -[ x ]-> a2;
    trans a0 -[ y ]-> a1;
    trans a0 -[ x ]-> a1;
  }
  atom B {
    ports z, w;
    states b0 init, b1, b2, b3;
    trans b0 -[ z ]-> b3;
    trans b0 -[ z ]-> b1;
    trans b0 -[ w ]-> b1;
    trans b0 -[ z ]-> b2;
  }
  connector xz = x z;
  connector yw = y w;
  connector ywz = y w z;
}
"""


def test_successors_expand_only_owners_with_several_targets():
    # A has 2 targets on x and B 3 on z: firing {x, z} reaches their 6
    # combinations; {y, w} is deterministic and reaches the one state
    # `step` builds without a generator; B's share {w, z} of the pool
    # member {y, w, z} is no label of B
    sysm = parse(NONDETERMINISTIC)
    s0 = sysm.initial_state()
    a, b = sysm.atoms
    assert a.moves == {fz("x"): {"a0": ("a2", "a1")}, fz("y"): {"a0": ("a1",)}}
    assert b.moves == {fz("z"): {"b0": ("b3", "b1", "b2")}, fz("w"): {"b0": ("b1",)}}
    forks = successors(sysm, s0, fz("x", "z"))
    assert forks == oracle_successors(sysm, s0, fz("x", "z")) and len(forks) == 6
    assert step(sysm, s0, fz("x", "z"), rng=None) == ("a2", "b3")  # the first declared targets
    assert successors(sysm, s0, fz("y", "w")) == {step(sysm, s0, fz("y", "w"), rng=None)} == {("a1", "b1")}
    assert fz("y", "w", "z") in sysm.gamma and sysm.shares(fz("y", "w", "z"))[1][1:] == (fz("w", "z"), {})
    for call in (successors, step):
        with pytest.raises(NotEnabledError):
            call(sysm, s0, fz("y", "w", "z"))
    assert survivors(sysm, s0) == {fz("x", "z"), fz("y", "w")}


def test_each_label_is_one_object():
    # the labels an atom offers and keys its moves by are the objects
    # `label_of` (and so `shares`) hands out: lookups hit by identity
    systems = [gen_tasks(8, 4), gen_bus(4), *map(random_system, range(200))]
    for atom in (atom for sysm in systems for atom in sysm.atoms):
        assert all(a is atom.label_of[a] for offered in atom.labels_from.values() for a in offered)
        assert all(a is atom.label_of[a] for a in atom.moves)


def test_sorted_interactions_is_stable():
    pool = {fz("b"), fz("a", "b"), fz("a")}
    assert sorted(pool, key=interaction_key) == [fz("a"), fz("b"), fz("a", "b")]


def test_trace_properties(mod8):
    from portsync.enumerative import EnumEngine
    tr = EnumEngine(mod8, seed=0).run(4)
    assert len(tr) == 4
    assert tr.initial == mod8.initial_state()
    assert [a for a in tr.interactions] == [s[0] for s in tr.steps]
    assert not tr.deadlocked


def test_indexed_pairs_are_the_strict_subset_pairs():
    systems = [modulo8(), *map(gen_bus, (1, 2, 4)), *(gen_tasks(n, m) for n, m in ((2, 1), (3, 2), (4, 4)))]
    systems += [r for r in map(random_system, range(60)) if isinstance(r.priority, MaximalProgress)]
    assert len(systems) > 20
    for sysm in systems:
        assert effective_pairs(sysm.priority, sysm.gamma) == _oracle_pairs(sysm)
    # the empty interaction lies below every other one
    pool = frozenset((fz(), fz("a"), fz("a", "b"), fz("b", "c")))
    assert effective_pairs(MaximalProgress(), pool) == {(a, b) for a in pool for b in pool if a < b}


def test_pairs_are_computed_once_per_model(monkeypatch):
    calls = []
    real = model.effective_pairs
    monkeypatch.setattr(model, "effective_pairs", lambda *args: calls.append(args) or real(*args))
    sysm = gen_tasks(3, 2)
    engines = [EnumEngine(sysm), EnumEngine(sysm, seed=1)]
    check_equivalence(sysm, bound=20)
    for state in reachable(sysm, bound=20).states:
        assert frozenset(engines[0].survivors(state)) == frozenset(engines[1].survivors(state)) == survivors(sysm, state)
    assert len(calls) == 1
    assert {(lo, hi) for lo, his in sysm.dominators.items() for hi in his} == real(sysm.priority, sysm.gamma)


def _invalid():
    a = AtomicBehavior("A", ("s",), "nope", ("p",), (Transition("s", fz("q"), "s"),))
    return SystemModel("m", (a,), (Connector("c", PortLeaf("zz")),), None)


def test_validate_returns_a_new_list_each_call():
    sysm = _invalid()
    first, second = validate(sysm), validate(sysm)
    assert first == second and len(first) == 3
    assert first is not second
    first.clear()
    second.append("not a diagnostic")
    assert len(validate(sysm)) == 3


def test_one_validation_per_model(monkeypatch):
    calls = []
    real = model._validate
    text = serialize(gen_tasks(3, 2))  # the family validates itself when it is built
    monkeypatch.setattr(model, "_validate", lambda system: calls.append(system) or real(system))
    sysm = parse(text)
    EnumEngine(sysm)
    SymbolicEngine(sysm)
    assert check_equivalence(sysm, bound=20).equivalent
    assert len(calls) == 1
    calls.clear()
    built = gen_tasks(3, 2)
    EnumEngine(built)
    assert len(calls) == 1 and calls[0] is built
    with pytest.raises(ValidationError):
        EnumEngine(_invalid())


def _shared_templates():
    # c1/c2 and c3/c4 each share a template but list their ports in
    # another order; c3 and c4 repeat a port, c5 repeats one on its own
    def term(*factors):
        return fusion(Factor(t if isinstance(t, Fusion) else PortLeaf(t), mark) for t, mark in factors)

    atoms = tuple(AtomicBehavior(name, ("s",), "s", (p,), (Transition("s", fz(p), "s"),))
                  for name, p in (("A", "p"), ("B", "q"), ("C", "r")))
    qp, rp = term(("q", False), ("p", False)), term(("r", False), ("p", False))
    connectors = (Connector("c1", term(("p", True), ("q", False))), Connector("c2", term(("q", True), ("p", False))),
                  Connector("c3", term(("p", True), (qp, False))), Connector("c4", term(("r", True), (term(("p", False), ("r", False)), False))),
                  Connector("c5", term(("q", True), (rp, True), ("q", False))))
    return SystemModel("shared", atoms, connectors, MaximalProgress())


def test_gamma_is_the_union_of_the_connectors_interactions():
    shared = _shared_templates()
    c1, c2, c3, c4, _ = shared.connectors
    assert c1.template[0] == c2.template[0] and c1.template[1] == ("p", "q") and c2.template[1] == ("q", "p")
    assert c3.template[0] == c4.template[0] and c3.template[1] == ("p", "q") and c4.template[1] == ("r", "p")
    tasks = gen_tasks(8, 2)
    pairs = SystemModel(tasks.name, tasks.atoms, tasks.connectors, ExplicitPairs(effective_pairs(tasks.priority, tasks.gamma)))
    systems = [modulo8(), *map(gen_bus, (2, 3, 16)), gen_tasks(3, 2), gen_tasks(8, 4), pairs,
               *map(hub_system, range(40)), *map(random_system, range(60)), shared]
    for sysm in systems:
        assert sysm.gamma == frozenset(a for c in sysm.connectors for a in interactions_of(c.term) if a), sysm.name
    assert shared.gamma == {fz("p"), fz("q"), fz("r"), fz("p", "q"), fz("p", "r"), fz("p", "q", "r")}


def test_interactions_run_once_per_template(monkeypatch):
    calls = []
    monkeypatch.setattr(model, "interactions_of", lambda term: calls.append(term) or interactions_of(term))
    sysm = gen_tasks(8, 4)
    # its two connector kinds, [b go]' p and [f halt]' r, share one template
    assert len(sysm.gamma) == 512 and len(sysm.connectors) == 448
    assert len({c.template[0] for c in sysm.connectors}) == len(calls) == 1
    calls.clear()
    assert len(_shared_templates().gamma) == 6 and len(calls) == 3


def test_connectors_of_one_shape_share_one_template_text():
    # tasks8x4's 448 connectors have one shape; `_shared_templates`' five
    # connectors have three
    tasks, shared = gen_tasks(8, 4), _shared_templates()
    for sysm in (tasks, shared, *map(random_system, range(60))):
        texts: dict[str, str] = {}
        for c in sysm.connectors:
            assert texts.setdefault(c.template[0], c.template[0]) is c.template[0], (sysm.name, c.name)
        if sysm is tasks or sysm is shared:
            assert len(texts) == (1 if sysm is tasks else 3)


def test_a_connector_is_a_value_of_its_name_and_term():
    # `template` and `port_set` are computed from the term at construction
    # and take no part in equality, hash or repr; `replace` computes them
    # again for the new term
    rng = random.Random(11)
    ports = [f"p{i}" for i in range(6)]
    for _ in range(300):
        term = random_monomial_term(rng, ports, 3)
        conn = Connector("c", term)
        assert conn.template == template_of(term) and conn.port_set == support(term)
        other = random_monomial_term(rng, ports, 3)
        moved = dataclasses.replace(conn, term=other)
        assert moved == Connector("c", other) and moved.name == "c"
        assert moved.template == template_of(other) and moved.port_set == support(other)
    a, b = Connector("c", PortLeaf("x")), Connector("c", PortLeaf("x"))
    object.__setattr__(b, "template", ("elsewhere", ("y",)))
    object.__setattr__(b, "port_set", frozenset({"y"}))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "Connector(name='c', term=PortLeaf(port='x'))"
    assert a != Connector("d", PortLeaf("x")) and a != Connector("c", PortLeaf("y"))
    with pytest.raises(TypeError):
        Connector("c", PortLeaf("x"), template=a.template)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.template = b.template


def test_terms_transitions_and_connectors_hold_no_instance_dict():
    leaf = PortLeaf("p")
    values = (leaf, ZeroLeaf(), OneLeaf(), Factor(leaf, True), Fusion((Factor(leaf, True),)),
              Transition("s", fz("p"), "t"), Connector("c", leaf))
    for x in values:
        assert not hasattr(x, "__dict__"), type(x).__name__
    sysm = gen_tasks(3, 2)
    assert not any(hasattr(t, "__dict__") for a in sysm.atoms for t in a.transitions)
    assert not any(hasattr(c, "__dict__") or hasattr(c.term, "__dict__") for c in sysm.connectors)


def test_walk_matches_the_reference_walk():
    # once it has refused a new state the walk reads no successor, yet it
    # expands the same states in the same order and gives the same set and
    # flag as the walk that reads them all
    systems = [modulo8(), gen_bus(3), gen_tasks(3, 2), *map(random_system, range(100))]
    truncated = saved = 0
    for sysm in systems:
        def expand(state, calls, drawn):
            calls.append(state)  # when called, not when read
            return (drawn.append(t) or t for a in survivors(sysm, state) for t in successors(sysm, state, a))

        for bound in (1, 2, 5, 30, 10**5):
            calls, drawn, ref_calls, ref_drawn = [], [], [], []
            got = walk(sysm, bound, lambda s: expand(s, calls, drawn))
            want = reference_walk(sysm, bound, lambda s: expand(s, ref_calls, ref_drawn))
            assert got == want, (sysm.name, bound)
            assert calls == ref_calls and len(calls) == len(got.states)
            assert drawn == ref_drawn[:len(drawn)]
            truncated += got.truncated
            saved += len(ref_drawn) - len(drawn)
    assert truncated > 30 and saved > 0


def test_an_undeclared_control_state_raises_what_the_engines_raise(monkeypatch):
    # gen_bus(3)'s initial state with its last atom at a state it does not
    # declare: the reference's five public reads raise the engines' error,
    # each after one check of the state (`enabled` none per pool member)
    sysm = gen_bus(3)
    init = sysm.initial_state()
    assert len(survivors(sysm, init)) == 12
    bad = (*init[:-1], "nowhere")
    a = min(survivors(sysm, init), key=interaction_key)
    message = f"^atom {sysm.atoms[-1].name} declares no state 'nowhere'$"
    assert message == "^atom member4_3 declares no state 'nowhere'$"
    checks = []
    check = model._check_state
    monkeypatch.setattr(model, "_check_state", lambda *args: checks.append(args) or check(*args))
    for call in (survivors, enabled, lambda s, st: act(s, st, a), lambda s, st: step(s, st, a),
                 lambda s, st: successors(s, st, a)):
        checks.clear()
        with pytest.raises(ValueError, match=message):
            call(sysm, bad)
        assert checks == [(sysm, bad)]
        checks.clear()
        call(sysm, init)
        assert checks == [(sysm, init)]
    for engine in (EnumEngine, SymbolicEngine):
        eng = engine(sysm)
        eng.state = bad
        with pytest.raises(ValueError, match=message):
            eng.step()
    with pytest.raises(ValueError, match=message):
        EnumEngine(sysm).survivors(bad)
