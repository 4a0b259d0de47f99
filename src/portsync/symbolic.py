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
independent component (`Component`), which is split into port groups:
ports linked by a connector's support, an explicit pair or one transition
label, where a group whose owners all own ports of another group merges
into it (one union-find pass finds both).  Each group stands for its
owners projected onto it (their ports and labels in the group).  Groups
that are copies of one another under an order-preserving renaming of
their ports form a class: their signatures, written over the ranks of
their ports, agree.  Only the first group of a class, its
representative, is encoded in the shared manager.  The representative's
owner positions that a swap of owners maps onto each other form orbits
(`_orbits`; symmetry as in Ip and Dill 1996, Emerson and Sistla 1996).
Each group reads the class's one survivor table at its class key: per
owner, the representative's first state that offers the same ranked
labels, each orbit's values sorted.  A model of the entry's function,
over the representative's ports, goes to the group's ports through each
port's owner position, moved by the sort's permutation, and its index
there (`SystemEncoding.translate`).  An interaction and its dominators
lie in one group, so a component's survivors are the disjoint union of
its groups'.  Their join is never built: a component is live if a group
is and counts the sum of their counts; its pick draws a group by its
count, then a uniform model of its entry (`BddManager.pick_sat`).  Each
function is built on first read, and the build reads only what a step
reads: each representative's local behaviors, f_C and priority inputs.

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
table, when there are none outside).  A one-level rename (`shift`)
moves them onto the primed copies, each primed port following its port
in the order; the dominated set is the relational product
excluded(P) = exists P'. dominators(P') & R(P, P'), and the survivor
function is g & ~excluded.

Each class keeps one survivor table, and no other table is kept: per
class key, the survivor function, whether it has a survivor, and its
number of models over a group's own ports (`sat_count` over every
variable, shifted right by the variables outside those ports).  A count
is filled in once per entry, on the first draw that needs it: among two
or more live components, or among a component's groups.  The tables
hold at most the sum of the classes' local state spaces up to the
orbits' permutations, not their product.  `survivors` (which
`check` reads) and the step read the same entries, and enter
`survivor_fn` only on a miss.  The engine keeps each component's group
entries from its last step; a fired interaction lies in the drawn
component's ports, so the next step re-reads only that component's
groups.  A step draws a live component (one with a live group) weighted
by the sum of its groups' counts (with one live component there is no
draw), and picks a uniform survivor of it with coins from the engine's
own generator.
No primed behavior, primed connectors or pool-sized priority function
is built.
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
from .connectors import AcTerm, Fusion, Interaction, PortLeaf, interaction_key
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
_has_survivor = itemgetter(1)  # of a survivor-table entry


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
    pair and by one transition label.  A group whose owners all own ports
    of another group merges into that group: every change of its key
    changes the larger group's key too, so on its own it would only add a
    table read to each miss.  The atoms that own ports of one kept group
    form one component (maximal progress links nothing: a dominated
    interaction lies inside its dominator's connector); a merged group
    shares atoms with the group it merges into, so both are in one."""
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
    # the kept groups' owners and ports; a group is met after every group
    # that has more owners
    kept: list[tuple[frozenset[int], list[str]]] = []
    for owners, group in sorted(((frozenset(owner[p] for p in g), g) for g in groups.values()),
                                key=lambda og: -len(og[0])):
        into = next((k for k in kept if owners <= k[0]), None)
        if into is None:
            kept.append((owners, group))
        else:
            into[1].extend(group)
    # atoms joined by a kept group, each labelled with the least atom of its component
    label = list(range(len(system.atoms)))
    for owners, _ in kept:
        joined = {label[i] for i in owners}
        if len(joined) > 1:
            label = [min(joined) if k in joined else k for k in label]
    parts: dict[int, tuple[list[int], list[tuple[str, ...]]]] = {c: ([], []) for c in dict.fromkeys(label)}
    for i, c in enumerate(label):
        parts[c][0].append(i)
    for group in sorted((sorted(g, key=at.__getitem__) for _, g in kept), key=lambda g: at[g[0]]):
        parts[label[owner[group[0]]]][1].append(tuple(group))
    return [(tuple(atoms), tuple(kept)) for atoms, kept in parts.values()]


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
    """A (sub-)system's functions; the whole system's encoding also holds
    its independent components, and a port group's is read by the step."""
    system: SystemModel
    manager: BddManager
    # the whole system's independent components
    components: tuple["Component", ...] = field(default=(), repr=False, compare=False)
    # a group's class: its representative, which encodes the class's
    # functions and keeps its survivor table; how we read our class key out
    # of a state and, where the class has orbits, our owner at each position
    # of it (`translate`); else the representative's ports -> ours
    representative: Optional["SystemEncoding"] = field(default=None, repr=False, compare=False)
    key: Callable[[GlobalState], GlobalState] = field(default=itemgetter(slice(None)), repr=False, compare=False)
    orient: Optional[Callable[[GlobalState], list[int]]] = field(default=None, repr=False, compare=False)
    own: Optional[dict[str, str]] = field(default=None, repr=False, compare=False)
    # local state -> [survivor function, whether it has a survivor, its
    # number of survivors over our ports (None until a draw needs it)]
    survivor_table: dict[GlobalState, list] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # f_B, f_S and the whole system's own functions are read by no step:
    # each is built when first asked for

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

    def survivor_fn(self, state: GlobalState) -> BddRef:
        """The survivor function at a local state, entered in `survivor_table`."""
        # each atom's local behavior mentions only its own ports and holds
        # when it is idle, so their conjunction, restrict(f_B, state), can
        # be conjoined with a function block by block
        m = self.manager
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
        self.survivor_table[state] = [fn, fn != m.false, None]
        return fn

    def survivor_count(self, entry: list) -> int:
        """A `survivor_table` entry's number of survivors, filled in on the first
        call: its function mentions only our ports, so each other variable
        doubles its model count."""
        if entry[2] is None:
            entry[2] = self.manager.sat_count(entry[0]) >> self._count_shift
        return entry[2]

    @cached_property
    def _count_shift(self) -> int:
        return len(self.manager.variables) - len(self.port_names)

    def entry(self, key: GlobalState) -> list:
        """Our `survivor_table` entry at a local state; `survivor_fn` fills a miss."""
        if key not in self.survivor_table:
            self.survivor_fn(key)
        return self.survivor_table[key]

    def survivors(self, state: GlobalState) -> frozenset[Interaction]:
        """The union of the components' survivor sets."""
        return frozenset(a for c in self.components for a in c.survivors(state))

    @cached_property
    def _place(self) -> dict[str, tuple[int, int]]:
        """Each port's owner position and its index among the owner's ports."""
        return {p: (k, i) for k, atom in enumerate(self.system.atoms) for i, p in enumerate(atom.ports)}

    def translate(self, ports: frozenset[str], perm: Optional[list[int]]) -> Interaction:
        """A model of our class entry, over the representative's ports, as
        ours: the i-th port of owner position k is owner perm[k]'s i-th."""
        if perm is None:
            return ports if self.own is None else frozenset(map(self.own.__getitem__, ports))
        atoms, place = self.system.atoms, self.representative._place
        return frozenset([atoms[perm[k]].ports[i] for k, i in map(place.__getitem__, ports)])


class Component:
    """An independent component: its port groups, whose survivor sets are
    disjoint and make up its own, each read from its class's entry."""

    def __init__(self, groups: tuple[SystemEncoding, ...], manager: BddManager):
        self.groups, self.manager = groups, manager
        # each group's key reader, its class table and its representative,
        # bound once so that a table hit looks up no attribute
        self._readers = tuple((g.key, g.representative.survivor_table, g.representative) for g in groups)

    def entries(self, state: GlobalState) -> list[list]:
        """Each group's class-table entry at its key in a system state."""
        out = []
        for key, table, rep in self._readers:
            out.append(table.get(key(state)) or rep.entry(key(state)))  # an entry is a non-empty list
        return out

    def survivor_count(self, entries: list[list]) -> int:
        """The sum of the groups' numbers of survivors in their `entries`,
        each filled in on its first call."""
        return sum(map(SystemEncoding.survivor_count, self.groups, entries))

    def survivors(self, state: GlobalState) -> list[Interaction]:
        """Each group's models at its class entry, translated onto its ports."""
        out: list[Interaction] = []
        for g, e in zip(self.groups, self.entries(state)):
            perm = g.orient and g.orient(state)
            out += (g.translate(m, perm) for m in self.manager.iter_models(e[0], g.representative.port_names))
        return out

    def pick(self, state: GlobalState, entries: list[list], rng) -> Interaction:
        """A uniform survivor at a state whose `entries` hold one: a live
        group drawn by its count (with one group there is no draw), then a
        uniform model of its class entry, translated onto its ports."""
        groups, k = self.groups, 0
        if len(groups) > 1:  # the draw of `random.Random.choices(groups, counts)`
            cum = list(accumulate(map(SystemEncoding.survivor_count, groups, entries)))
            k = bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)
        g = groups[k]
        ports = self.manager.pick_sat(entries[k][0], rng, g.representative.port_names)
        return g.translate(ports, g.orient and g.orient(state))


def _ranked_term(term: AcTerm, rank: dict[str, int]):
    """A connector term with each port written as its rank."""
    if isinstance(term, PortLeaf):
        return rank[term.port]
    if isinstance(term, Fusion):
        return tuple((_ranked_term(f.term, rank), f.trigger) for f in term.factors)
    return term


def _orbits(sub: SystemModel, rank: dict[str, int], terms: frozenset, pairs: frozenset) -> tuple[tuple[int, ...], ...]:
    """The orbits of two or more owner positions of a representative's
    sub-system under the swaps of owners that are its automorphisms, given
    its ranked connector `terms` and ranked explicit `pairs`.  A position b
    joins the orbit of the first position a it passes against: both have
    the same states and initial state, and the swap σ of a's ports with
    b's by index maps a's transitions onto b's and each connector term and
    pair on a's or b's ports onto one of the sub-system's (σ is one to one
    and keeps the others).  The swaps (a b) of an orbit's first member a
    generate every permutation of the orbit, so sorting the key values of
    an orbit is an automorphism."""
    closure = sub.priority.closure if isinstance(sub.priority, ExplicitPairs) else ()

    def moves(atom: AtomicBehavior, r: dict[str, int]) -> frozenset:
        return frozenset((t.source, frozenset(map(r.__getitem__, t.label)), t.target) for t in atom.transitions)

    def swaps(a: AtomicBehavior, b: AtomicBehavior) -> bool:
        if (a.states, a.init, len(a.ports)) != (b.states, b.init, len(b.ports)):
            return False
        swap = dict(zip(a.ports, b.ports)) | dict(zip(b.ports, a.ports))
        sigma = {p: rank[swap.get(p, p)] for p in rank}
        moved = a.port_set | b.port_set
        return (moves(a, sigma) == moves(b, rank)
                and all(_ranked_term(c.term, sigma) in terms for c in sub.connectors if c.port_set & moved)
                and all((frozenset(map(sigma.__getitem__, lo)), frozenset(map(sigma.__getitem__, hi))) in pairs
                        for lo, hi in closure if (lo | hi) & moved))

    orbits: list[list[int]] = []
    for k, atom in enumerate(sub.atoms):
        into = next((o for o in orbits if swaps(sub.atoms[o[0]], atom)), None)
        if into is None:
            orbits.append([k])
        else:
            into.append(k)
    return tuple(tuple(o) for o in orbits if len(o) > 1)


def _sorting_reader(readers: tuple[tuple[int, dict], ...], orbits: tuple[tuple[int, ...], ...]):
    """The key reader and the orientation of a group whose class has
    orbits, from each owner's (atom index, map to the representative's
    states).  The key sorts the values of each orbit's positions; the
    orientation lists per position the position whose value the key put
    there."""
    getters = [(o, itemgetter(*o)) for o in orbits]

    def key(state: GlobalState) -> GlobalState:
        v = [r[state[j]] for j, r in readers]
        for o, get in getters:
            for k, x in zip(o, sorted(get(v))):
                v[k] = x
        return tuple(v)

    def orient(state: GlobalState) -> list[int]:
        v = [r[state[j]] for j, r in readers]
        perm = list(range(len(v)))
        for o, _ in getters:
            for k, at in zip(o, sorted(o, key=v.__getitem__)):
                perm[k] = at
        return perm

    return key, orient


def _group(system: SystemModel, ports: tuple[str, ...], mgr: BddManager, classes: dict) -> SystemEncoding:
    """One port group, encoded over the atoms that own its ports projected
    onto it: each keeps its ports in the group and the transitions whose
    labels lie in it, with the connectors and explicit pairs on the group.

    Its class is `classes[signature]`, whose first group represents it.
    The signature names nothing: with the ports ranked by level, it holds
    per owner its port ranks and the ranked label sets its states offer,
    the connector terms and explicit pairs over ranks, and the priority
    kind.  The rank-preserving rename of ports is thus an isomorphism of
    the sub-systems, and our key reader maps each owner's state straight to
    the representative's first state offering the same ranked labels.  So
    the class table is shared by the states that differ only outside a
    group and by the groups of the class.  Where the class has orbits
    (`_orbits`), the reader sorts each orbit's values, so the states that
    differ by a permutation of interchangeable owners share it too; where
    it has none and every such map is the identity (every bus cluster),
    the key is the owners' states, read by one `itemgetter`."""
    ours = frozenset(ports)
    atoms = tuple(j for j, atom in enumerate(system.atoms) if atom.port_set & ours)

    def project(atom: AtomicBehavior) -> AtomicBehavior:
        if atom.port_set <= ours:
            return atom
        return AtomicBehavior(atom.name, atom.states, atom.init, tuple(p for p in atom.ports if p in ours),
                              tuple(t for t in atom.transitions if t.label <= ours))

    pr = system.priority
    if isinstance(pr, ExplicitPairs):
        pr = ExplicitPairs(frozenset(ab for ab in pr.closure if (ab[0] | ab[1]) & ours))
    sub = SystemModel(system.name, tuple(project(system.atoms[i]) for i in atoms),
                      tuple(c for c in system.connectors if c.port_set & ours), pr)
    rank = {p: r for r, p in enumerate(ports)}  # port order is level order

    def ranked(ps: Iterable[str]) -> frozenset[int]:
        return frozenset(map(rank.__getitem__, ps))

    offers = [{q: frozenset(map(ranked, atom.labels_from[q])) for q in atom.states} for atom in sub.atoms]
    firsts = [{o: q for q, o in reversed(offer.items())} for offer in offers]  # each offer's first state
    terms = frozenset(_ranked_term(c.term, rank) for c in sub.connectors)
    pairs = frozenset((ranked(lo), ranked(hi)) for lo, hi in pr.closure) if isinstance(pr, ExplicitPairs) else None
    signature = (tuple((tuple(map(rank.__getitem__, a.ports)), frozenset(o)) for a, o in zip(sub.atoms, firsts)),
                 terms, pairs if pairs is not None else type(pr))
    enc = SystemEncoding(sub, mgr)
    if signature not in classes:
        classes[signature] = (enc, firsts, _orbits(sub, rank, terms, pairs))
    rep, their, orbits = classes[signature]
    readers = tuple((j, {q: first[o] for q, o in offer.items()}) for j, offer, first in zip(atoms, offers, their))
    if orbits:
        enc.key, enc.orient = _sorting_reader(readers, orbits)
    elif all(q == r[q] for _, r in readers for q in r):
        enc.key = itemgetter(*atoms) if len(atoms) > 1 else itemgetter(slice(atoms[0], atoms[0] + 1))
    else:
        enc.key = lambda state: tuple([r[state[j]] for j, r in readers])
    enc.representative, enc.own = rep, None if rep is enc or orbits else dict(zip(rep.port_names, ports))
    return enc


def build(system: SystemModel) -> SystemEncoding:
    diags = validate(system)
    if diags:
        raise ValidationError(diags)
    if system.priority is not None and not isinstance(system.priority, (MaximalProgress, ExplicitPairs)):
        raise TypeError(f"unknown priority model: {system.priority!r}")
    mgr = BddManager(variable_order(system))
    classes: dict = {}  # signature -> its representative, its owners' first state per offer, its orbits
    comps = tuple(Component(tuple(_group(system, g, mgr, classes) for g in groups), mgr)
                  for _, groups in _partition(system))
    for rep, _, _ in classes.values():  # what a step reads
        rep.local_behavior, rep.connector_fn, rep.pairs_fn, rep.dominator_fn
    return SystemEncoding(system, mgr, comps)


class SymbolicEngine(Engine):
    """Stepper that works on the encoded system only.

    The per-step work is reading the class-table entries of the port
    groups of the component the last step moved, at their keys in the new
    state (`Component.entries`); the other components' entries are kept
    from the last step.
    A step whose state is not the one the last step fired to (a reset, or
    a state set from outside) reads every component.  Then a live
    component is drawn weighted by its groups' counts (the live list, the
    counts and their running sums are kept too, rebuilt only when the moved
    component gains or loses its last survivor, and the sums redone only
    when its count changes), and a uniform survivor of it is picked
    (`Component.pick`) with coins from the engine's generator; the pool is
    never enumerated.
    """

    def __init__(self, system: SystemModel, seed: int = 0):
        self.encoding = build(system)
        self.system = system
        self.seed = seed
        self.reset()
        # each component's group entries as our last step read them, the state
        # that step fired to and the component it moved: at that state only the
        # moved component's entries can differ; and the live components' indices
        # and, once a draw has needed them, their survivor counts and running sums
        self._entries = [None] * len(self.encoding.components)
        self._fired_to = None
        self._moved = 0
        self._live = None
        self._weights = None
        self._cum = None

    def step(self) -> Optional[tuple[Interaction, GlobalState]]:
        """Fire one surviving interaction; None signals deadlock.  The
        component is drawn weighted by survivor counts, if several have any."""
        state, entries, comps = self.state, self._entries, self.encoding.components
        if state is self._fired_to:
            k = self._moved
            new = entries[k] = comps[k].entries(state)
            live = any(map(_has_survivor, new))
            if live != (k in self._live):
                self._live = None
            elif live and self._weights is not None:
                i, w = self._live.index(k), comps[k].survivor_count(new)
                if w != self._weights[i]:
                    self._weights[i] = w
                    self._cum = list(accumulate(self._weights))
        else:  # reset, or a state set from outside: read every component
            entries[:] = [c.entries(state) for c in comps]
            self._live = None
        if self._live is None:
            self._live, self._weights = [k for k, es in enumerate(entries) if any(map(_has_survivor, es))], None
        live = self._live
        if not live:
            return None
        k = live[0]
        if len(live) > 1:  # an entry is counted on the first draw it takes part in
            if self._weights is None:
                self._weights = [comps[j].survivor_count(entries[j]) for j in live]
                self._cum = list(accumulate(self._weights))
            cum = self._cum  # the draw of `random.Random.choices(live, weights)`
            k = live[bisect(cum, self._rng.random() * cum[-1], 0, len(cum) - 1)]
        a = comps[k].pick(state, entries[k], self._rng)
        self.state = fire(self.system, state, a, self._rng)
        self._fired_to, self._moved = self.state, k
        self.steps_taken += 1
        return a, self.state
