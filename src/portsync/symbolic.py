"""Boolean encoding of a system and the symbolic execution engine.

Encoding, over one variable per state and per port (plus a primed copy
of each port for priorities):

- behavior: per atom and control state, its local behavior: the port
  minterms of the labels it fires from that state, or idleness (all its
  ports false); f_B joins them under one-hot state cubes;
- connectors: per connector, its causal rules and root clause over its
  own ports; the system-wide function is their disjunction with every
  port foreign to a connector false, built by a balanced union-join
  (`union_join`) that never widens a connector to all ports;
- priority: for explicit pairs, a static relation R(P, P') between an
  interaction over the plain port copies and a dominator over the primed
  copies, joined the same way from one cube per pair over its own ports.
  Maximal progress needs no relation: its R, the strict-subset
  relation, is built only to report `fp_nodes`.

Atoms linked by a connector or an explicit priority pair form one
independent component, encoded on its own over its own ports in the
shared manager (a system of one component is its own only component).
A component is split into port groups: ports linked by a connector's
support, an explicit pair or one transition label, where a group whose
owners all own ports of another group merges into it (one union-find
pass finds both).  An interaction and its dominators lie in one group,
so a component's survivors are the disjoint union of its groups'.  A
component of two or more groups encodes each group over its owners
projected onto it (their ports and labels in the group); each group keeps
a survivor table keyed by its owners' states, a state standing for every
state of its atom that offers the same labels inside the group.  The
groups' join is never built: the component is live if a group is, counts
the sum of their counts, and draws the coins of a pick from the join
with `BddManager.disjoint_pick` over the groups' functions.  A component
of one group is its own only group.  Each function is built on first
read, and the build reads only what a step reads: each group's local
behaviors, f_C and priority inputs, and the group pick of a component of
several groups.

A group's survivor function at its local state conjoins the
connectors with the current states' local behaviors, whose conjunction
is the behavior restricted to the state, giving the enabled function g.
It takes one `BddManager.and_local` with the atoms that own ports as
blocks: each local behavior mentions only its atom's ports and holds
when they are all false (idleness), which `and_local` checks.  So a node
of f_C that can no longer fire an atom is left as it is by that atom's
behavior, and the result at a node is memoised by the behaviors of the
atoms it can still fire only: a node that cannot fire the atoms that
moved keeps its entry.  Under maximal progress the survivor function
holds g's maximal models (`BddManager.maximal`).  Under explicit pairs
the possible dominators are the active interactions of the pool and any
active interaction a pair lists as a dominator outside the pool: the
same `and_local` over the pool and those dominators (g itself, from the
table, when there are none outside).  A one-level shift moves them onto
the primed copies, each primed port following its port in the order;
the dominated set is the relational product
excluded(P) = exists P'. dominators(P') & R(P, P'), and the survivor
function is g & ~excluded.

Each component and each group keeps one survivor table: per local
state, the survivor function (with several groups, the plan of its pick
and the groups' entries), whether it has a survivor, and its number of
models over the component's own ports (`sat_count` over every variable,
shifted right by the variables outside those ports; with several groups,
the sum of theirs), counted on the first draw among two or more live
components that needs it.  The tables hold at most the sum of the
components' local state spaces, not their product.  `survivors` (which
`check` reads) and the step read the same entries.  The engine
keeps each component's entry from its last step; a fired interaction lies
in the drawn component's ports, so the next step re-reads only that
component's entry.  A step draws a live component weighted by these counts
(with one live component there is no draw), and picks one of its
satisfying valuations with coins from the engine's own generator.  No
primed behavior, primed connectors or pool-sized priority function is built.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Optional

from . import boolfunc as bf
from .bdd import BddManager, BddRef, balanced
from .causal import causal_rules, rules_to_formula, tau
from .connectors import Interaction, interaction_key
from .model import (
    AtomicBehavior,
    Connector,
    Engine,
    ExplicitPairs,
    GlobalState,
    MaximalProgress,
    SystemModel,
    ValidationError,
    validate,
)
from .model import step as fire

PRIME = "'"


def prime(port: str) -> str:
    return port + PRIME


def state_var(atom: AtomicBehavior, state: str) -> str:
    # dot keeps state variables out of the port namespace
    return f"{atom.name}.{state}"


def variable_order(system: SystemModel) -> tuple[str, ...]:
    """Per atom: its state variables, then each port directly followed
    by its primed copy.  Keeps related variables close and state blocks
    cheap, and makes priming a port a one-level `BddManager.shift`."""
    order: list[str] = []
    for atom in system.atoms:
        for s in atom.states:
            order.append(state_var(atom, s))
        for p in atom.ports:
            order.append(p)
            order.append(prime(p))
    return tuple(order)


def _partition(system: SystemModel) -> list[tuple[tuple[int, ...], tuple[tuple[str, ...], ...]]]:
    """Each independent component's atom indices and port groups, in atom
    and port order, from one union-find pass over the ports.  Ports are
    linked by a connector's support, by both sides of an explicit effective
    pair and by one transition label; the atoms that own ports of one group
    form one component (maximal progress links nothing: a dominated
    interaction lies inside its dominator's connector).  A group whose
    owners all own ports of another group merges into that group: every
    change of its key changes the larger group's key too, so on its own it
    would save no miss and add a join to each."""
    ports, owner = system.all_ports, system.port_owner
    at = {p: k for k, p in enumerate(ports)}
    parent = list(range(len(ports)))  # each root is the least port of its group

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    links = [c.port_set for c in system.connectors]
    links += [t.label for atom in system.atoms for t in atom.transitions]
    if isinstance(system.priority, ExplicitPairs):
        links += [lo | hi for lo, hi in system.priority.closure]
    for link in links:
        roots = {find(at[p]) for p in link}
        if len(roots) > 1:
            r = min(roots)
            for x in roots:
                parent[x] = r
    groups: dict[int, list[str]] = {}
    for k, p in enumerate(ports):
        groups.setdefault(find(k), []).append(p)
    # atoms joined by a group, each labelled with the least atom of its component
    label = list(range(len(system.atoms)))
    for group in groups.values():
        joined = {label[owner[p]] for p in group}
        if len(joined) > 1:
            label = [min(joined) if k in joined else k for k in label]
    # per component its atoms and its kept groups' owners and ports; a group
    # is never below one of another component, and it is met after every
    # group that has more owners
    comps: dict[int, tuple[list[int], list[tuple[frozenset[int], list[str]]]]] = {
        c: ([], []) for c in dict.fromkeys(label)}
    for i, c in enumerate(label):
        comps[c][0].append(i)
    for owners, group in sorted(((frozenset(owner[p] for p in g), g) for g in groups.values()),
                                key=lambda og: -len(og[0])):
        kept = comps[label[owner[group[0]]]][1]
        into = next((k for k in kept if owners <= k[0]), None)
        if into is None:
            kept.append((owners, group))
        else:
            into[1].extend(group)
    parts = []
    for atoms, kept in comps.values():
        merged = sorted((sorted(g, key=at.__getitem__) for _, g in kept), key=lambda g: at[g[0]])
        parts.append((tuple(atoms), tuple(map(tuple, merged))))
    return parts


def components(system: SystemModel) -> tuple[tuple[int, ...], ...]:
    """Atom indices of each independent component, in atom order."""
    return tuple(atoms for atoms, _ in _partition(system))


def port_groups(system: SystemModel) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """Each component's port groups, each in port order."""
    return tuple(groups for _, groups in _partition(system))


def encode_local(atom: AtomicBehavior, mgr: BddManager) -> dict[str, BddRef]:
    """The atom's behavior at each of its control states: a firing of a
    label from that state, or idleness."""
    idle = mgr.cube(dict.fromkeys(atom.ports, False))
    return {q: mgr.or_all([*(mgr.cube({p: p in lbl for p in atom.ports}) for lbl in atom.labels_from[q]), idle])
            for q in atom.states}


def encode_atom(atom: AtomicBehavior, mgr: BddManager) -> BddRef:
    """Behavior of one atom: state-consistent firings or idleness."""
    idle = mgr.cube(dict.fromkeys(atom.ports, False))
    return mgr.or_all([*(mgr.cube({state_var(atom, s): s == q for s in atom.states}) & f
                         for q, f in encode_local(atom, mgr).items()), idle])


def encode_behavior(system: SystemModel, mgr: BddManager) -> BddRef:
    return mgr.and_all(encode_atom(atom, mgr) for atom in system.atoms)


def _expr_bdd(mgr: BddManager, expr: bf.BoolExpr) -> BddRef:
    if isinstance(expr, bf.Var):
        return mgr.var(expr.name)
    if isinstance(expr, bf.Const):
        return mgr.true if expr.value else mgr.false
    if isinstance(expr, bf.Not):
        return ~_expr_bdd(mgr, expr.arg)
    if isinstance(expr, bf.And):
        return mgr.and_all(_expr_bdd(mgr, a) for a in expr.args)
    if isinstance(expr, bf.Or):
        return mgr.or_all(_expr_bdd(mgr, a) for a in expr.args)
    raise TypeError(f"not a boolean expression: {expr!r}")


def union_join(parts: Iterable[tuple[Iterable[str], BddRef]], ports: Iterable[str], mgr: BddManager) -> BddRef:
    """The disjunction of the parts, each (its support U_k, a function G_k
    over U_k), widened to `ports` with every port outside U_k false,
    without widening any of them: the `balanced` fold joins (U1, G1) and
    (U2, G2) into (U1 | U2, G1 & none(U2 - U1) | G2 & none(U1 - U2)) and
    closes the root with none(ports - U); no part gives false.  Leaves
    sorted by their deepest support level, then their highest, share ports
    with their neighbours; the order changes the time only, not the node."""
    def none(names: Iterable[str]) -> BddRef:
        return mgr.cube(dict.fromkeys(names, False))

    def deepest_then_highest(leaf: tuple[frozenset[str], BddRef]) -> tuple[int, int]:
        levels = [mgr.level_of(p) for p in leaf[0]] or [-1]
        return max(levels), min(levels)

    def join(a: tuple[frozenset[str], BddRef], b: tuple[frozenset[str], BddRef]) -> tuple[frozenset[str], BddRef]:
        (u1, g1), (u2, g2) = a, b
        return u1 | u2, (g1 & none(u2 - u1)) | (g2 & none(u1 - u2))

    leaves = sorted(((frozenset(u), g) for u, g in parts), key=deepest_then_highest)
    sup, fn = balanced(join, leaves, (frozenset(), mgr.false))
    return fn & none(p for p in ports if p not in sup)


def encode_connectors(system: SystemModel, mgr: BddManager) -> BddRef:
    """The pool as a function over all ports: each connector's causal rules
    over its own ports, joined by `union_join`."""
    def leaf(conn: Connector) -> tuple[frozenset[str], BddRef]:
        rules, root_clause = causal_rules(tau(conn.term))
        return conn.port_set, _expr_bdd(mgr, rules_to_formula(rules, root_clause, conn.port_set))

    return union_join(map(leaf, system.connectors), system.all_ports, mgr)


def encode_priority_pairs(
    pairs: frozenset[tuple[Interaction, Interaction]],
    all_ports: tuple[str, ...],
    mgr: BddManager,
) -> BddRef:
    """Priority relation: per pair (lo, hi), lo over the plain copies and
    hi over the primed copies of their ports, joined by `union_join` in
    the pairs' sorted order, so that every process builds the same nodes;
    no pair gives false."""
    def leaf(lo: Interaction, hi: Interaction) -> tuple[list[str], BddRef]:
        sup = lo | hi
        return [*sup, *map(prime, sup)], mgr.cube({**{p: p in lo for p in sup}, **{prime(p): p in hi for p in sup}})

    return union_join((leaf(lo, hi) for lo, hi in sorted(pairs, key=lambda ab: (interaction_key(ab[0]), interaction_key(ab[1])))),
                      [*all_ports, *map(prime, all_ports)], mgr)


def encode_strict_subset(ports: tuple[str, ...], mgr: BddManager) -> BddRef:
    """Maximal progress's relation: the plain copy is a strict subset of
    the primed copy.  Only `fp_nodes` reads it; the step takes maximal models."""
    subset = mgr.and_all(mgr.var(p).implies(mgr.var(prime(p))) for p in ports)
    grows = mgr.or_all(~mgr.var(p) & mgr.var(prime(p)) for p in ports)
    return subset & grows


@dataclass
class SystemEncoding:
    system: SystemModel
    manager: BddManager
    # the independent components (this encoding itself if one), and how
    # an encoding reads its own atoms' states out of a system state (a
    # group: out of its component's local state, as its key)
    components: tuple["SystemEncoding", ...] = field(default=(), repr=False, compare=False)
    local_state: Callable[[GlobalState], GlobalState] = field(
        default=itemgetter(slice(None)), repr=False, compare=False)
    # the component's port groups (this encoding itself if one)
    groups: tuple["SystemEncoding", ...] = field(default=(), repr=False, compare=False)
    # local state -> [survivor function (with several groups, the plan of
    # our group pick), whether it has a survivor, its number of survivors
    # over our ports (None until a draw needs it), this encoding, which
    # counts them, None (or the groups' entries)]: the one memo the step
    # and `survivors` read
    survivor_table: dict[GlobalState, list] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.components:
            self.components = (self,)
        if not self.groups:
            self.groups = (self,)

    # f_B, f_S and, with several components, the system-level functions
    # are read by no step: each is built when first asked for

    @cached_property
    def port_names(self) -> tuple[str, ...]:
        return self.system.all_ports

    @cached_property
    def primed_names(self) -> tuple[str, ...]:
        return tuple(map(prime, self.port_names))

    @cached_property
    def local_behavior(self) -> tuple[dict[str, BddRef], ...]:
        """Per atom: control state -> the atom's behavior there."""
        return tuple(encode_local(atom, self.manager) for atom in self.system.atoms)

    @cached_property
    def behavior_fn(self) -> BddRef:
        """f_B: all atoms consistent with their state."""
        return encode_behavior(self.system, self.manager)

    @cached_property
    def connector_fn(self) -> BddRef:
        """f_C: the valuations that are pool interactions."""
        return encode_connectors(self.system, self.manager)

    @cached_property
    def system_fn(self) -> BddRef:
        return self.behavior_fn & self.connector_fn

    @cached_property
    def pairs_fn(self) -> BddRef:
        """The explicit pairs' R over plain/primed ports, else false."""
        pr = self.system.priority
        if not isinstance(pr, ExplicitPairs):
            return self.manager.false
        return encode_priority_pairs(pr.closure, self.port_names, self.manager)

    @cached_property
    def dominator_fn(self) -> BddRef:
        """The pool, plus the listed dominators outside it: they need only be active."""
        m, pr = self.manager, self.system.priority
        outside = {hi for _, hi in pr.closure} - self.system.gamma if isinstance(pr, ExplicitPairs) else ()
        return m.or_all([self.connector_fn, *(m.cube({p: p in hi for p in self.port_names})
                                              for hi in sorted(outside, key=interaction_key))])

    @property
    def priority_fn(self) -> BddRef:
        """R over plain/primed ports; maximal progress's, read by no step, is built here."""
        if isinstance(self.system.priority, MaximalProgress):
            return encode_strict_subset(self.port_names, self.manager)
        return self.pairs_fn

    def node_counts(self) -> dict[str, int]:
        m = self.manager
        return {
            "fs_nodes": m.node_count(self.system_fn),
            "fb_nodes": m.node_count(self.behavior_fn),
            "fc_nodes": m.node_count(self.connector_fn),
            "fp_nodes": m.node_count(self.priority_fn),
        }

    def state_assignment(self, state: GlobalState) -> dict[str, bool]:
        out: dict[str, bool] = {}
        for atom, current in zip(self.system.atoms, state):
            for s in atom.states:
                out[state_var(atom, s)] = s == current
        return out

    @cached_property
    def local_blocks(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The atoms that own ports and each one's port levels, the blocks
        of `BddManager.and_local`; a port-less atom's local behavior is true."""
        atoms = self.system.atoms
        owners = tuple(i for i, atom in enumerate(atoms) if atom.ports)
        return owners, tuple(tuple(sorted(map(self.manager.level_of, atoms[i].ports))) for i in owners)

    @cached_property
    def group_pick(self) -> tuple[Callable, Callable]:
        """The plan and the pick of the join of the groups' survivor
        functions, in group order: they mention disjoint ports, which
        together are ours, and none holds where every port is false."""
        return self.manager.disjoint_pick([g.port_names for g in self.groups])

    def survivor_fn(self, state: GlobalState) -> BddRef | tuple[BddRef, ...]:
        """The survivor function at a local state, or with several groups
        theirs in group order; a miss enters it in `survivor_table`."""
        entry = self.survivor_table.get(state)
        if entry is not None:
            return entry[0] if entry[4] is None else tuple(e[0] for e in entry[4])
        m = self.manager
        if len(self.groups) > 1:
            # an interaction and every interaction that dominates it share a
            # port, so they lie in one group: the survivors are the disjoint
            # union of the groups' survivors
            keys = [g.local_state(state) for g in self.groups]
            fns = tuple(g.survivor_fn(key) for g, key in zip(self.groups, keys))
            entries = [g.survivor_table[key] for g, key in zip(self.groups, keys)]
            plan = self.group_pick[0](fns)
            self.survivor_table[state] = [plan, plan is not None, None, self, entries]
            return fns
        else:
            # each atom's local behavior mentions only its own ports and holds
            # when it is idle, so their conjunction, restrict(f_B, state), can
            # be conjoined with a function block by block
            owners, blocks = self.local_blocks
            factors = [self.local_behavior[i][state[i]] for i in owners]
            fn = g = m.and_local(self.connector_fn, blocks, factors)
            if isinstance(self.system.priority, MaximalProgress):
                fn = m.maximal(g, self.port_names)
            elif self.pairs_fn != m.false:
                # the dominators are the active pool interactions (g) and listed
                # dominators outside the pool; the state is restricted away, so
                # only plain ports remain, each of which the shift moves onto its
                # primed copy
                dominators = m.and_local(self.dominator_fn, blocks, factors)
                excluded = m.and_exists(m.shift(dominators), self.pairs_fn, self.primed_names)
                fn = g & ~excluded
        self.survivor_table[state] = [fn, fn != m.false, None, self, None]
        return fn

    def survivor_count(self, entry: list) -> int:
        """A `survivor_table` entry's number of survivors, filled in on the first
        call: its function mentions only our ports, so each other variable
        doubles its model count; with several groups, the sum of theirs."""
        if entry[2] is None:
            m = self.manager
            entry[2] = (m.sat_count(entry[0]) >> (len(m.variables) - len(self.port_names)) if entry[4] is None
                        else sum(e[3].survivor_count(e) for e in entry[4]))
        return entry[2]

    def survivors(self, state: GlobalState) -> frozenset[Interaction]:
        """The union of the components' groups' model sets at their local states."""
        out: list[Interaction] = []
        for c in self.components:
            fns = c.survivor_fn(c.local_state(state))
            for g, fn in zip(c.groups, fns) if len(c.groups) > 1 else [(c, fns)]:
                out += c.manager.iter_models(fn, g.port_names)
        return frozenset(out)


def _sub_system(system: SystemModel, atoms: tuple[int, ...], ports: frozenset[str]) -> SystemModel:
    """The atoms' sub-system projected onto `ports`: each atom keeps its
    ports among them and the transitions whose labels lie among them, with
    the connectors and explicit pairs on them."""
    def project(atom: AtomicBehavior) -> AtomicBehavior:
        if atom.port_set <= ports:
            return atom
        return AtomicBehavior(atom.name, atom.states, atom.init, tuple(p for p in atom.ports if p in ports),
                              tuple(t for t in atom.transitions if t.label <= ports))

    pr = system.priority
    if isinstance(pr, ExplicitPairs):
        pr = ExplicitPairs(frozenset(ab for ab in pr.closure if (ab[0] | ab[1]) & ports))
    return SystemModel(system.name, tuple(project(system.atoms[i]) for i in atoms),
                       tuple(c for c in system.connectors if c.port_set & ports), pr)


def _group(component: SystemModel, ports: tuple[str, ...], mgr: BddManager) -> SystemEncoding:
    """One port group of a component, encoded over the atoms that own its
    ports, projected onto it.  Its key is read out of the component's local
    state: each owner's state becomes the first of its states that offers
    the same labels inside the group, so the group's table is shared by
    the states that differ only outside it."""
    ours = frozenset(ports)
    atoms = tuple(j for j, atom in enumerate(component.atoms) if atom.port_set & ours)
    sub = _sub_system(component, atoms, ours)

    def first_alike(atom: AtomicBehavior) -> dict[str, str]:
        seen: dict[frozenset[Interaction], str] = {}
        return {q: seen.setdefault(atom.labels_from[q], q) for q in atom.states}

    readers = tuple(zip(atoms, map(first_alike, sub.atoms)))
    return SystemEncoding(sub, mgr, local_state=lambda state: tuple([r[state[j]] for j, r in readers]))


def build(system: SystemModel) -> SystemEncoding:
    diags = validate(system)
    if diags:
        raise ValidationError(diags)
    if system.priority is not None and not isinstance(system.priority, (MaximalProgress, ExplicitPairs)):
        raise TypeError(f"unknown priority model: {system.priority!r}")
    mgr = BddManager(variable_order(system))
    parts = _partition(system)
    encs = []
    for atoms, groups in parts:
        sub, reader = system, itemgetter(slice(None))
        if len(parts) > 1:  # the sub-system of the component's atoms, connectors and pairs
            sub = _sub_system(system, atoms, frozenset(p for i in atoms for p in system.atoms[i].ports))
            reader = itemgetter(*atoms) if len(atoms) > 1 else itemgetter(slice(atoms[0], atoms[0] + 1))
        encs.append(SystemEncoding(sub, mgr, local_state=reader,
                                   groups=tuple(_group(sub, g, mgr) for g in groups) if len(groups) > 1 else ()))
    for e in encs:  # what a step reads
        if len(e.groups) > 1:
            e.group_pick
        for g in e.groups:
            g.local_behavior, g.connector_fn, g.pairs_fn, g.dominator_fn
    return encs[0] if len(encs) == 1 else SystemEncoding(system, mgr, tuple(encs))


class SymbolicEngine(Engine):
    """Stepper that works on the encoded system only.

    The per-step work is one survivor-table entry: that of the component
    the last step moved, at its new local state (composed by `survivor_fn`
    on a miss); the other components' entries are kept from the last step.
    A step whose state is not the one the last step fired to (a reset, or
    a state set from outside) reads every component.  Then a live
    component is drawn weighted by the entries' counts (the live list, the
    counts and their running sums are kept too, rebuilt only when the moved
    component gains or loses its last survivor, and the sums redone only
    when its count changes), and one satisfying assignment is
    picked with coins from the engine's generator; the pool is never
    enumerated.
    """

    def __init__(self, system: SystemModel, seed: int = 0):
        self.encoding = build(system)
        self.system = system
        self.seed = seed
        self.reset()
        # each component's local-state reader and its own survivor table,
        # bound once so that a table hit looks up no attribute
        self._components = tuple((c.local_state, c.survivor_table, c) for c in self.encoding.components)
        # each component's entry as our last step read it, the state that step
        # fired to and the component it moved: at that state only the moved
        # component's entry can differ; and the live components' indices and,
        # once a draw has needed them, their survivor counts and running sums
        self._entries = [None] * len(self._components)
        self._fired_to = None
        self._moved = 0
        self._live = None
        self._weights = None
        self._cum = None

    def _read(self, k: int, state: GlobalState) -> list:
        """Component k's survivor-table entry at its local state in `state`."""
        local, table, c = self._components[k]
        key = local(state)
        entry = table.get(key)
        if entry is None:
            c.survivor_fn(key)
            entry = table[key]
        return entry

    def step(self) -> Optional[tuple[Interaction, GlobalState]]:
        """Fire one surviving interaction; None signals deadlock.  The
        component is drawn weighted by survivor counts, if several have any."""
        state, entries = self.state, self._entries
        if state is self._fired_to:
            k = self._moved
            old, new = entries[k], self._read(k, state)
            entries[k] = new
            if new[1] != old[1]:
                self._live = None
            elif new[1] and self._weights is not None:
                i, w = self._live.index(k), new[3].survivor_count(new)
                if w != self._weights[i]:
                    self._weights[i] = w
                    self._cum = list(accumulate(self._weights))
        else:  # reset, or a state set from outside: read every component
            entries[:] = [self._read(k, state) for k in range(len(entries))]
            self._live = None
        if self._live is None:
            self._live, self._weights = [k for k, e in enumerate(entries) if e[1]], None
        live = self._live
        if not live:
            return None
        k = live[0]
        if len(live) > 1:  # an entry is counted on the first draw it takes part in
            if self._weights is None:
                self._weights = [e[3].survivor_count(e) for e in map(entries.__getitem__, live)]
                self._cum = list(accumulate(self._weights))
            cum = self._cum  # the draw of `random.Random.choices(live, weights)`
            k = live[bisect(cum, self._rng.random() * cum[-1], 0, len(cum) - 1)]
        e = entries[k]
        a = self.encoding.manager.pick_sat(e[0], self._rng) if e[4] is None else e[3].group_pick[1](e[0], self._rng)
        self.state = fire(self.system, state, a, self._rng)
        self._fired_to, self._moved = self.state, k
        self.steps_taken += 1
        return a, self.state
