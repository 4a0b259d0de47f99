"""Boolean encoding of a system and the symbolic execution engine.

Encoding, over one variable per state and per port (plus a primed copy
of each port for priorities):

- behavior: per atom and control state, its local behavior: the port
  minterms of the labels it fires from that state, or idleness (all its
  ports false); f_B joins them under one-hot state cubes;
- connectors: per connector, its causal rules and root clause over its
  own ports, derived and encoded once per shape (the term over the ranks
  of its ports in level order); the system-wide function is their
  disjunction with every port foreign to a connector false, built by
  `BddManager.from_rows` from one row per connector, which reads its
  shape's node through its own levels in order, so that no connector is
  renamed or widened to all ports;
- priority: for explicit pairs, a static relation R(P, P') between an
  interaction over the plain port copies and a dominator over the primed
  copies: one full minterm per pair over every plain and primed port,
  built by `BddManager.from_rows` with no apply and no cube per pair.
  Maximal progress needs no relation: its R, the strict-subset
  relation, is built only to report `fp_nodes`.

Atoms linked by a connector or an explicit priority pair form one
independent component (`Component`), which is split into port groups:
ports linked by a connector's support, an explicit pair or one transition
label, where a group whose owners all own ports of another group merges
into it.  One pass (`_partition`, a union-find over the ports and the
atoms) finds both.  It hands over each group with its owners and the
connectors and closure pairs on it (a connector's support and a pair's
ports are linked, so each lies inside one group), and each atom's
component.  Each group (`Group`) stands for its owners projected onto it
(their ports and labels in the group), with those connectors and pairs.
Groups that are copies of one another under an order-preserving renaming
of their ports form a class: their signatures, written over the ranks of
their ports, agree.  A class is one object (`GroupClass`) that its
groups share: the encoding of its first group, the representative, which
alone is encoded in the shared manager; its orbits, the representative's
owner positions that a swap of owners maps onto each other (`_orbits`;
symmetry as in Ip and Dill 1996, Emerson and Sistla 1996); its key
digits; and its one survivor table.  Each group reads that table at its
class key, one integer summed from a code per owner of the
representative's first state that offers the same ranked labels: it
counts each orbit's owners per value and holds each other owner's value
(`_digits`, the counter abstraction of Emerson and Sistla 1996).  A
component reads every group's key in one sum: per atom and state it
keeps one code, the sum of the atom's codes in each of its groups, each
shifted into that group's bit field, which is as wide as the group's
keys need; every key is taken out of the sum by shift and mask (a
one-group component's field is at shift 0 and its mask covers the whole
sum).  A group whose class has orbits also has an occupancy field in the
sum, after its key field: each orbit owner's code sets one bit there, in
the row of its value (an orbit's rows in the order of its values) and
the column of its owner position, so nothing carries and the set bits,
in bit order, list each orbit's owners as a stable sort by value does.
On a miss the class fills the entry (`GroupClass.fill`) at the local
state the key stands for, each orbit's values sorted
(`Group.canonical`), and where the class has orbits the entry records
per canonical orbit position its row and its occurrence index t among
the positions holding its value.  A model of the entry's
function, the set of the representative's true port names that
`pick_sat` and `iter_models` give, is read onto a group in one of two
ways.  Where the class has no orbits, the group reads each name through
its own port map (`Group.port_map`), from the representative's ports to
its own, which line up because the signature fixes each owner position's
port ranks; the translation depends on the model alone, so the group
keeps each model it has read with its interaction (`Group.by_model`),
which the pick and `survivors` share.  Where the class has orbits, the
model is read as the places of its ports, each an owner position and an
index among that owner's ports (`GroupClass.place`, which only such a
class builds), and the group takes the port at that index of the owner
at that position where it lies in no orbit, else of the owner that the
t-th set bit of its row in the state's occupancy field names
(`Group.read`): no orbit is sorted and no permutation is built.  An
interaction and its dominators lie in one
group, so a component's survivors are the disjoint union of its
groups'.  Their join is never built: a component counts the sum of their
counts; its pick draws a group by its count, then a uniform model of its
entry
(`BddManager.pick_sat`).  Each function is built on first read, and the
build reads only what a step reads: each class encoding's local
behaviors, f_C and priority inputs.

A group's survivor function at its local state conjoins the current
states' local behaviors, whose conjunction is the behavior restricted to
the state, with the connectors: the balanced `and_all` fold of those
behaviors and f_C gives the enabled function g.  Under maximal progress
the survivor function holds g's maximal models (`BddManager.maximal`).
Under explicit pairs a dominator need only be active, in the pool or
not, and R holds only listed dominators on its primed side, so the
active set, the fold of the local behaviors alone, stands for the
dominators: no pool is listed.  g is then the active set and f_C.  A
one-level rename (`shift`) moves the active set onto the primed copies,
each primed port following its port in the order; the dominated set is
the relational product excluded(P) = exists P'. active(P') & R(P, P'),
and the survivor function is g & ~excluded.

Each class keeps one survivor table, and no other table is kept: per
class key, the survivor function and its number of models over a
group's own ports (`sat_count` over every variable, shifted right by the
variables outside those ports), both filled on the miss; the function
mentions only those ports, so the count is 0 exactly when it is
false.  The tables hold at most the sum of the classes' local state
spaces up to the orbits' permutations, not their product.  An encoding
keeps no table: `survivor_fn` only computes the function.  `survivors`
(which `check` reads) and the step read the same entries, and enter
`survivor_fn` only through a class's fill on a miss.  The first
`survivors` to read an entry lists its models once and keeps them in
it: as names where the class has no orbits, as the places of their
ports where it has.  Without orbits each read maps the names through the
group's `Group.by_model`, so the step and `survivors` hand out one
object per interaction.  With orbits the owner at an orbit position
changes from state to state, so each read takes the places through the
state's occupancy field (`Group.read`).  Only `survivors` reads these
lists; the step never does.  Its pick reads the one model it draws in
the group's `by_model`, which maps it only on a miss, or, where the
class has orbits, through the occupancy field as `survivors` does.

The encoding keeps one read of a state, which `survivors` and the step
share: per component its packed sum and group entries there, the sum of
their counts and, once `survivors` has listed it, its survivor list.  A
component's read depends on its owners' states alone, so moving the
kept read to another state (`SystemEncoding.read`) re-reads only the
components that own an atom whose state differs (the encoding keeps
each atom's component): the states `check` walks breadth first differ
in few atoms, and `survivors` lists only the components read again
since it last listed them.  A fired interaction lies in the drawn
component's ports, so after firing the step re-reads that component
alone, at the state fired to; a step at another state (a reset, a state
set from outside or one `survivors` read since) moves the kept read
there first.  A step takes the component of the one positive count, or
draws one by its count, and picks a uniform survivor of it with coins
from the engine's own generator; one helper (`_draw`) makes both
weighted draws.
No primed behavior, primed connectors or pool-sized priority function is
built.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count
from operator import itemgetter, ne
from typing import Iterable, Optional

from . import boolfunc as bf
from .bdd import BddManager, BddRef
from .causal import causal_rules, rules_to_formula, tau
from .connectors import Interaction
from .model import (
    AtomicBehavior,
    Connector,
    Engine,
    ExplicitPairs,
    GlobalState,
    MaximalProgress,
    SystemModel,
    ValidationError,
    _check_arity,
    _undeclared,
    validate,
)

PRIME = "'"
_count = itemgetter(1)  # of a class-table entry: its number of survivors


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


def _partition(system: SystemModel) -> tuple[list[tuple[list[int], list[tuple]]], tuple[int, ...]]:
    """Each independent component's atom indices, in atom order, and port
    groups, in port order, and per atom the index of its component, from
    one union-find over the ports and the atoms.  Ports are linked by a
    connector's support, by both sides of an explicit effective pair and by
    one transition label.  A group whose owners all own ports of another
    group merges into that group: every change of its key changes the
    larger group's key too, so on its own it would only add a table read to
    each miss.  The atoms that own ports of one kept group are then joined
    into one component (maximal progress links nothing: a dominated
    interaction lies inside its dominator's connector); a merged group
    shares atoms with the group it merges into, so both are in one.

    Each group is handed over as its owners' atom indices, its ports in
    port order, the indices of the connectors on it in system order and the
    closure pairs on it.  A connector's support and a closure pair's ports
    are linked, so each lies inside one group, the group of any one of its
    ports (one `find`); a connector of constants has no ports and lies in
    none."""
    ports, owner = system.all_ports, system.port_owner
    node = {x: k for k, x in enumerate((*range(len(system.atoms)), *ports))}  # atom i is node i, then the ports
    parent = list(range(len(node)))  # a join makes the least node of a set its root

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    def join(links: Iterable[Iterable]) -> None:
        """Union the nodes of the ports or atoms of each link."""
        for link in links:
            roots = {find(node[x]) for x in link}
            if len(roots) > 1:  # a link may be empty: a connector of constants has no ports
                r = min(roots)
                for x in roots:
                    parent[x] = r

    closure = system.priority.closure if isinstance(system.priority, ExplicitPairs) else ()
    join([*(c.port_set for c in system.connectors), *(t.label for atom in system.atoms for t in atom.transitions),
          *(lo | hi for lo, hi in closure)])
    groups: dict[int, list[str]] = {}  # per root, its ports
    for p in ports:
        groups.setdefault(find(node[p]), []).append(p)
    # per kept group's root, its owners, ports, connectors and pairs; a group
    # is met after every group that has more owners, and a merged group's
    # root is linked to the root it merges into
    kept: dict[int, tuple[frozenset[int], list[str], list[int], list[tuple]]] = {}
    for r, owners in sorted(((r, frozenset(owner[p] for p in g)) for r, g in groups.items()), key=lambda ro: -len(ro[1])):
        parent[r] = into = next((k for k, g in kept.items() if owners <= g[0]), r)
        kept.setdefault(into, (owners, [], [], []))[1].extend(groups[r])
    for k, c in enumerate(system.connectors):
        if c.port_set:
            kept[find(node[next(iter(c.port_set))])][2].append(k)
    for ab in closure:
        kept[find(node[next(iter(ab[0] or ab[1]))])][3].append(ab)
    join(g[0] for g in kept.values())  # the atoms joined by a kept group form one component
    parts: dict[int, tuple[list[int], list[tuple]]] = {}  # per root, in the order of the least atoms
    for i in range(len(system.atoms)):
        parts.setdefault(find(i), ([], []))[0].append(i)
    for owners, group, conns, pairs in sorted(kept.values(), key=lambda g: min(map(node.__getitem__, g[1]))):
        parts[find(min(owners))][1].append((sorted(owners), sorted(group, key=node.__getitem__), conns, pairs))
    index = {r: k for k, r in enumerate(parts)}
    return list(parts.values()), tuple(index[find(i)] for i in range(len(system.atoms)))


def encode_local(atom: AtomicBehavior, mgr: BddManager) -> dict[str, BddRef]:
    """The atom's behavior at each of its control states: a firing of a
    label from that state, or idleness.  The labels are joined in the order
    of their first transitions (`AtomicBehavior.moves`), not in a set's,
    so the build makes the same nodes under every string hash seed."""
    idle = mgr.cube(dict.fromkeys(atom.ports, False))
    return {q: mgr.or_all([*(mgr.cube({p: p in lbl for p in atom.ports}) for lbl, by in atom.moves.items() if q in by),
                           idle])
            for q in atom.states}


def encode_atom(atom: AtomicBehavior, mgr: BddManager) -> BddRef:
    """Behavior of one atom: state-consistent firings or idleness."""
    idle = mgr.cube(dict.fromkeys(atom.ports, False))
    return mgr.or_all([*(mgr.cube({state_var(atom, s): s == q for s in atom.states}) & f
                         for q, f in encode_local(atom, mgr).items()), idle])


def encode_behavior(system: SystemModel, mgr: BddManager) -> BddRef:
    """f_B, the conjunction of the atoms' behaviors.  Caller: `behavior_fn`."""
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


def encode_connectors(system: SystemModel, mgr: BddManager) -> BddRef:
    """The pool as a function over all ports: one row per connector of
    `BddManager.from_rows`, its port levels and its causal rules.  The rules
    are derived and encoded once per shape, the term over the ranks of the
    connector's ports in level order; every connector of a shape reads that
    node through its own levels in order, so none is renamed or widened."""
    encoded: dict = {}  # shape -> its node and its first connector's port levels, in order
    rows = []
    for conn in system.connectors:
        term, ports = conn.template
        levels = list(map(mgr.level_of, ports))
        order = sorted(levels)
        shape = term, tuple(map(order.index, levels))
        if shape not in encoded:
            rules, root_clause = causal_rules(tau(conn.term))
            encoded[shape] = _expr_bdd(mgr, rules_to_formula(rules, root_clause, conn.port_set)), order
        rows.append((order, *encoded[shape]))
    return mgr.from_rows(rows, map(mgr.level_of, system.all_ports))


def encode_priority_pairs(pairs: frozenset[tuple[Interaction, Interaction]], all_ports: tuple[str, ...],
                          mgr: BddManager) -> BddRef:
    """Priority relation: the disjunction of one full minterm per pair (lo,
    hi) over the plain and primed copies of `all_ports`, lo's plain copies
    and hi's primed copies true (`BddManager.from_rows`); no pair gives
    false.  A port's primed copy is the next level (`variable_order`)."""
    level = mgr.level_of
    return mgr.from_rows((([*map(level, lo), *(level(p) + 1 for p in hi)], None, ()) for lo, hi in pairs),
                         [level(p) + d for p in all_ports for d in (0, 1)])


def encode_strict_subset(ports: tuple[str, ...], mgr: BddManager) -> BddRef:
    """Maximal progress's relation: the plain copy is a strict subset of
    the primed copy.  Only `fp_nodes` reads it; the step takes maximal models."""
    subset = mgr.and_all(mgr.var(p).implies(mgr.var(prime(p))) for p in ports)
    grows = mgr.or_all(~mgr.var(p) & mgr.var(prime(p)) for p in ports)
    return subset & grows


@dataclass
class SystemEncoding:
    """A (sub-)system's functions; the whole system's encoding also holds
    its independent components, each atom's component and the one kept
    read of a state that `survivors` and the engine's step share: per
    component its packed sum and group entries there, their summed count
    and, once `survivors` has listed it, its survivor list.  `read` moves
    it to another state by the components whose owners' states differ."""
    system: SystemModel
    manager: BddManager
    # the whole system's independent components, and per atom the index of
    # its component
    components: tuple["Component", ...] = field(default=(), repr=False, compare=False)
    component_of: tuple[int, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        # the state of the kept read (None before the first read) and per
        # component its packed sum and entries there, their summed count
        # and its survivor list (None until `survivors` lists it)
        self._last: Optional[GlobalState] = None
        self._reads: list[tuple[int, list[list]]] = [(0, [])] * len(self.components)
        self._counts = [0] * len(self.components)
        self._lists: list[Optional[list[Interaction]]] = [None] * len(self.components)

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
        """f_B: all atoms consistent with their state.  Callers: `system_fn`
        and `node_counts`."""
        return encode_behavior(self.system, self.manager)

    @cached_property
    def connector_fn(self) -> BddRef:
        """f_C: the valuations that are pool interactions."""
        return encode_connectors(self.system, self.manager)

    @cached_property
    def system_fn(self) -> BddRef:
        """f_S = f_B & f_C.  Caller: `node_counts`."""
        return self.behavior_fn & self.connector_fn

    @cached_property
    def pairs_fn(self) -> BddRef:
        """The explicit pairs' R over plain/primed ports, else false."""
        pr = self.system.priority
        if not isinstance(pr, ExplicitPairs):
            return self.manager.false
        return encode_priority_pairs(pr.closure, self.port_names, self.manager)

    @property
    def priority_fn(self) -> BddRef:
        """R over plain/primed ports; maximal progress's, read by no step, is
        built here.  Caller: `node_counts`."""
        if isinstance(self.system.priority, MaximalProgress):
            return encode_strict_subset(self.port_names, self.manager)
        return self.pairs_fn

    def node_counts(self) -> dict[str, int]:
        """The nodes of the whole-system functions.  Callers: `portsync
        stats`, `bench`'s symbolic rows and perfbench."""
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

    def survivor_fn(self, state: GlobalState) -> BddRef:
        """The survivor function at a local state; it mentions only our ports."""
        # the local behaviors' conjunction is restrict(f_B, state)
        m = self.manager
        factors = [local[q] for local, q in zip(self.local_behavior, state)]
        if self.pairs_fn == m.false:
            g = m.and_all([*factors, self.connector_fn])
            return m.maximal(g, self.port_names) if isinstance(self.system.priority, MaximalProgress) else g
        # a dominator need only be active, and R holds only listed
        # dominators, so the active set stands for them; the state is
        # restricted away, so only plain ports remain, each of which the
        # shift moves onto its primed copy
        active = m.and_all(factors)
        excluded = m.and_exists(m.shift(active), self.pairs_fn, self.primed_names)
        return active & self.connector_fn & ~excluded

    def read(self, state: GlobalState) -> None:
        """Move the kept read to `state`; ValueError on a state of the wrong
        arity or one naming a control state its atom does not declare, after
        which the next read reads every component.  A component's read
        depends on its owners' states alone, so only the components that own
        an atom whose state differs from the kept state's are read again, and
        their lists dropped."""
        _check_arity(self.system, state)
        last, reads, counts, lists, comps = self._last, self._reads, self._counts, self._lists, self.components
        changed = range(len(comps)) if last is None else set(compress(self.component_of, map(ne, state, last)))
        self._last = None  # until every changed component is read
        for k in changed:
            try:
                _, es = reads[k] = comps[k].entries(state)
            except KeyError:
                raise _undeclared(self.system, state) from None
            counts[k] = sum(map(_count, es))
            lists[k] = None
        self._last = state

    def survivors(self, state: GlobalState) -> frozenset[Interaction]:
        """The union of the components' survivor lists at `state`, each
        listed from the kept read (`read`) where it has no list yet;
        ValueError where `read` raises it."""
        self.read(state)
        lists, reads, comps = self._lists, self._reads, self.components
        for k, listed in enumerate(lists):
            if listed is None:
                packed, es = reads[k]
                lists[k] = comps[k].survivors(packed, es)
        return frozenset(chain.from_iterable(lists))


class GroupClass:
    """Port groups that are copies of one another (`_group`): the first
    one's encoding, which encodes the class's functions; its owners' first
    state per offer; its orbits (`_orbits`); per owner position each
    value's code, the number of keys, per orbit position each value's row
    of the occupancy field and the field's width (`_digits`); where it has
    orbits, each port's place, which its groups read a model through; and
    the class's one survivor table: key -> [survivor function, its number
    of survivors over a group's ports (0 exactly when it is false), where
    the class has orbits the reads of its canonical positions (`fill`),
    and once `Component.survivors` reads it, its models: as names where
    the class has no orbits, as the places of their ports (`place`) where
    it has]."""

    def __init__(self, encoding: SystemEncoding, firsts: list[dict], orbits: tuple[tuple[int, ...], ...]):
        self.encoding, self.firsts, self.orbits = encoding, firsts, orbits
        self.digits, self.keys, self.rows, self.occupancy_bits = _digits(firsts, orbits)
        self.table: dict[int, list] = {}
        # only a class with orbits reads each port's place: its owner
        # position and its index among the owner's ports (`Group.read`)
        if orbits:
            self.place = {p: (k, i) for k, atom in enumerate(encoding.system.atoms) for i, p in enumerate(atom.ports)}

    def fill(self, state: GlobalState, key: int) -> list:
        """The entry at `key`, filled at the local state it stands for: the
        survivor function mentions only the class's ports, so each other
        variable doubles its model count.  Where the class has orbits, the
        entry also reads each canonical position: None outside an orbit,
        else its value's row (as the row's offset in the occupancy field)
        and t, the number of earlier positions of its orbit that hold its
        value, so that its owner is the t-th set bit of that row."""
        enc, m = self.encoding, self.encoding.manager
        fn = enc.survivor_fn(state)
        e = self.table[key] = [fn, m.sat_count(fn) >> len(m.variables) - len(enc.port_names)]
        if self.orbits:
            held: dict[int, count] = {}  # per row, a count of its positions read so far
            e.append([rows and (rows[v] * len(state), next(held.setdefault(rows[v], count())))
                      for v, rows in zip(state, self.rows)])
        return e


class _Interactions(dict):
    """An orbit-free group's `by_model`: each model of its class's entries,
    as the representative's true port names (`pick_sat`, `iter_models`),
    to the group's interaction, read through the group's port map on the
    model's first read and kept, so that every later read returns the same
    object; a read that hits is one dict lookup."""

    def __init__(self, port_map: dict[str, str]):
        super().__init__()
        self.port_map = port_map

    def __missing__(self, model: frozenset[str]) -> Interaction:
        a = self[model] = frozenset(map(self.port_map.__getitem__, model))
        return a


class Group:
    """A port group: its owners projected onto it (`system`), its class,
    and per owner its atom index and each state's code, whose sum is its
    class key, a `key_bits`-bit field of its component's packed sum
    (`Component`).  Each owner's state is read as the representative's
    first state with the same offer (`_group`).  Where the class has no
    orbits, `port_map` maps each of the representative's ports to ours,
    and `by_model` maps each model of the class's entries that a pick or
    `Component.survivors` has read, as the set of the representative's
    true port names, to our interaction (`_Interactions`), so that every
    read of a model hands out one object.  Where it has
    orbits, each orbit owner also has per state a one-bit code
    (`occupancy`): the bit of its value's row and its owner position's
    column in our occupancy field, which lies right after our key field
    (`width` spans both), so that the field's set bits, in bit order, list
    each orbit's owners as a stable sort by value does; `read` takes each
    owner's ports (`_ports`, in owner order) at the places of a model
    through it."""

    def __init__(self, system: SystemModel, cls: GroupClass, readers: tuple[tuple[int, dict[str, str]], ...]):
        self.system, self.cls, self._readers = system, cls, readers
        self.codes = tuple((j, {q: d[r] for q, r in reader.items()}) for (j, reader), d in zip(readers, cls.digits))
        self.key_bits = (cls.keys - 1).bit_length()
        self.width = self.key_bits  # of our fields in the packed sum
        self.occupancy: tuple = ()  # per orbit owner, its codes, shifted past our key field
        if cls.orbits:
            self._columns, self.width = (1 << len(readers)) - 1, self.key_bits + cls.occupancy_bits
            self.occupancy = tuple((j, {q: 1 << self.key_bits + rows[r] * len(readers) + k for q, r in reader.items()})
                                   for k, ((j, reader), rows) in enumerate(zip(readers, cls.rows)) if rows)
            self._ports = tuple(atom.ports for atom in system.atoms)  # per owner position
        else:
            # the signature fixes each owner position's port ranks, so the
            # representative's ports and ours line up in level order
            self.port_map = dict(zip(cls.encoding.port_names, system.all_ports))
            self.by_model = _Interactions(self.port_map)

    def canonical(self, state: GlobalState) -> GlobalState:
        """The local state our key stands for: each orbit's values sorted."""
        v = [r[state[j]] for j, r in self._readers]
        for o in self.cls.orbits:
            for k, x in zip(o, sorted([v[k] for k in o])):
                v[k] = x
        return tuple(v)

    def read(self, occupancy: int, reads: list, places: Iterable[tuple[int, int]]) -> Interaction:
        """Where our class has orbits: a model of its entry, given as the
        places of its ports (`GroupClass.place`), as ours, where
        `occupancy` is our occupancy field (and what lies above it) and
        `reads` the entry's reads of its canonical positions
        (`GroupClass.fill`): the i-th port of canonical position k is the
        i-th port of owner k where k lies in no orbit, else of the owner
        that the t-th set bit of k's row names."""
        ports, columns = self._ports, self._columns
        out = []
        for k, i in places:
            r = reads[k]
            if r is not None:
                at, t = r
                bits = occupancy >> at & columns
                while t:
                    bits &= bits - 1
                    t -= 1
                k = (bits & -bits).bit_length() - 1
            out.append(ports[k][i])
        return frozenset(out)


def _draw(counts: list[int], rng) -> int:
    """The index `random.Random.choices(range(len(counts)), counts)` draws;
    `counts` has a positive count.  A zero count is an empty interval of
    the running sums, so it is never drawn.  The bound of the bisect is the
    last positive count, as in `choices` over the positive counts alone: it
    keeps a rounded-up coin inside."""
    cum = list(accumulate(counts))
    return bisect(cum, rng.random() * cum[-1], 0, cum.index(cum[-1]))


class Component:
    """An independent component: its port groups, whose survivor sets are
    disjoint and make up its own, each read from its class's entry.

    Each group's class key is a field of one packed integer: the sum over
    the component's owners of one code per (atom, state), that state's
    codes in every group, each shifted into its group's field.  A field is
    as wide as its group's keys need, so no field carries into the next,
    and every key is read by the same shift and mask, a lone group's too.
    A group whose class has orbits has its occupancy field right after its
    key field (`Group.occupancy`): one bit per orbit owner, so the same
    sum fills it and nothing carries there either."""

    def __init__(self, atoms: dict[int, tuple[str, ...]], groups: tuple[Group, ...], manager: BddManager):
        self.groups, self.manager = groups, manager
        # per atom, in atom order, each of its states' packed code: every
        # atom's, one that owns no port too, so that the sum looks up each
        # state and a state its atom does not declare raises KeyError
        packed = {j: dict.fromkeys(states, 0) for j, states in atoms.items()}
        # per group: its key field's shift and mask, its key's local state,
        # its class table and its class, bound once so that a table hit
        # looks up no attribute; and its occupancy field's shift
        readers, self._occupancy = [], []
        shift = 0
        for g in groups:
            readers.append((shift, (1 << g.key_bits) - 1, g.canonical, g.cls.table, g.cls))
            self._occupancy.append(shift + g.key_bits)
            for j, code in (*g.codes, *g.occupancy):
                into = packed[j]
                for q, c in code.items():
                    into[q] += c << shift
            shift += g.width
        self._codes, self._readers = tuple(packed.items()), tuple(readers)

    def entries(self, state: GlobalState) -> tuple[int, list[list]]:
        """Our packed sum at a system state and each group's class-table
        entry at its key: one sum over the owners' packed codes, from which
        each group's key is taken by shift and mask; a miss fills the entry
        at the local state the key stands for."""
        packed = sum([c[state[j]] for j, c in self._codes])
        out = []
        for shift, mask, canonical, table, cls in self._readers:
            k = packed >> shift & mask
            e = table.get(k)
            if e is None:
                e = cls.fill(canonical(state), k)
            out.append(e)
        return packed, out

    def survivors(self, packed: int, entries: list[list]) -> list[Interaction]:
        """Our survivors at a state whose packed sum and group entries, as
        `entries` reads them, are `packed` and `entries`: each group's
        models at its class entry, listed in the entry on its first read
        and read onto its ports.  Where the class has no orbits the entry
        lists them as names, each read in the group's `by_model`, so each
        interaction is the object the pick returns.  Where it has orbits
        the entry lists them as the places of their ports
        (`GroupClass.place`), and each read takes them through the state's
        occupancy field (`Group.read`)."""
        out: list[Interaction] = []
        for g, e, at in zip(self.groups, entries, self._occupancy):
            if len(e) < 3 + bool(g.occupancy):
                models = self.manager.iter_models(e[0], g.cls.encoding.port_names)
                e.append([tuple(map(g.cls.place.__getitem__, m)) for m in models] if g.occupancy else [*models])
            out += map(partial(g.read, packed >> at, e[2]), e[3]) if g.occupancy else map(g.by_model.__getitem__, e[2])
        return out

    def pick(self, packed: int, entries: list[list], rng) -> Interaction:
        """A uniform survivor at a state whose packed sum is `packed` and
        whose `entries` hold one: a group drawn by its count (`_draw`, with
        a coin whenever there are two or more groups), then a uniform model
        of its class entry, read onto its ports: in `Group.by_model` where
        its class has no orbits (through `Group.port_map` only on a miss),
        else through its occupancy field (`Group.read`)."""
        k = _draw([e[1] for e in entries], rng) if len(entries) > 1 else 0
        g = self.groups[k]
        model = self.manager.pick_sat(entries[k][0], rng, g.cls.encoding.port_names)
        if g.occupancy:
            return g.read(packed >> self._occupancy[k], entries[k][2], map(g.cls.place.__getitem__, model))
        return g.by_model[model]


def _ranked(conn: Connector, rank: dict[str, int]) -> tuple:
    """A connector's term with each port written as its rank: its template
    and the rank of each port the template's indices stand for."""
    term, ports = conn.template
    return term, tuple(map(rank.__getitem__, ports))


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
                and all(_ranked(c, sigma) in terms for c in sub.connectors if c.port_set & moved)
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


def _digits(firsts: list[dict], orbits: tuple[tuple[int, ...], ...]) -> tuple[list, int, list, int]:
    """Per owner position of a class, each value's code, and the number of
    keys: the class key is the sum of its positions' codes, a mixed-radix
    integer below the final weight.  An orbit has one digit of base
    |orbit| + 1 per value, in the order of its values, which counts the
    positions holding it (the counter abstraction, Emerson and Sistla
    1996); any other position has one digit holding its value's index.  So
    two keys agree exactly when the local states agree up to the orbits'
    permutations.  Then per owner position, None outside an orbit, else
    each value's row of the occupancy field, and the field's width: an
    orbit has one row per value, in the same order, and a row has one
    column per owner position, so the field's set bits, in bit order, list
    each orbit's owners as sorting them by value, stably, does."""
    digits: list = [None] * len(firsts)
    rows: list = [None] * len(firsts)
    weight, n = 1, 0
    for o in orbits:
        code, row = {}, {}
        for v in sorted({v for k in o for v in firsts[k].values()}):
            code[v], weight = weight, weight * (len(o) + 1)
            row[v], n = n, n + 1
        for k in o:
            digits[k], rows[k] = code, row
    for k, first in enumerate(firsts):
        if digits[k] is None:
            values = dict.fromkeys(first.values())
            digits[k] = {v: weight * i for i, v in enumerate(values)}
            weight *= len(values)
    return digits, weight, rows, n * len(firsts)


def _group(system: SystemModel, owners: list[int], ports: list[str], connectors: list[int], closure: list[tuple],
           mgr: BddManager, classes: dict) -> Group:
    """One port group, as `_partition` hands it over, encoded over its
    `owners` projected onto it: each keeps its ports in the group and the
    transitions whose labels lie in it, with the group's `connectors` (their
    indices, in system order) and, under explicit pairs, the `closure` pairs
    on its ports, which are their own closure.

    Its class is `classes[signature]`, made from the first group with
    that signature, its representative.  The signature names nothing:
    with the ports ranked by level, it holds per owner its port ranks and
    the ranked label sets its states offer, the connector terms and
    explicit pairs over ranks, and the priority kind.  The rank-preserving
    rename of ports is thus an isomorphism of the sub-systems, and our key
    sums per owner the code (`_digits`) of the representative's first
    state offering the same ranked labels as the owner's state; our
    component packs our codes and reads our key from its sum
    (`Component`).  So the class table is shared by the states that differ
    only outside a group, by the groups of the class and, where the class
    has orbits (`_orbits`), by the states that differ by a permutation of
    interchangeable owners, whose key counts the owners per value.  A miss
    fills the entry at `Group.canonical`, the local state the key stands
    for, each orbit's values sorted."""
    ours = frozenset(ports)

    def project(atom: AtomicBehavior) -> AtomicBehavior:
        if atom.port_set <= ours:
            return atom
        return AtomicBehavior(atom.name, atom.states, atom.init, tuple(p for p in atom.ports if p in ours),
                              tuple(t for t in atom.transitions if t.label <= ours))

    pr = ExplicitPairs(frozenset(closure)) if isinstance(system.priority, ExplicitPairs) else system.priority
    sub = SystemModel(system.name, tuple(project(system.atoms[i]) for i in owners),
                      tuple(map(system.connectors.__getitem__, connectors)), pr)
    rank = {p: r for r, p in enumerate(ports)}  # port order is level order

    def ranked(ps: Iterable[str]) -> frozenset[int]:
        return frozenset(map(rank.__getitem__, ps))

    offers = [{q: frozenset(map(ranked, atom.labels_from[q])) for q in atom.states} for atom in sub.atoms]
    firsts = [{o: q for q, o in reversed(offer.items())} for offer in offers]  # each offer's first state
    terms = frozenset(_ranked(c, rank) for c in sub.connectors)
    pairs = frozenset((ranked(lo), ranked(hi)) for lo, hi in closure) if isinstance(pr, ExplicitPairs) else None
    signature = (tuple((tuple(map(rank.__getitem__, a.ports)), frozenset(o)) for a, o in zip(sub.atoms, firsts)),
                 terms, pairs if pairs is not None else type(pr))
    cls = classes.get(signature)
    if cls is None:
        cls = classes[signature] = GroupClass(SystemEncoding(sub, mgr), firsts, _orbits(sub, rank, terms, pairs))
    return Group(sub, cls, tuple((j, {q: first[o] for q, o in offer.items()})
                                 for j, offer, first in zip(owners, offers, cls.firsts)))


def build(system: SystemModel) -> SystemEncoding:
    diags = validate(system)
    if diags:
        raise ValidationError(diags)
    mgr = BddManager(variable_order(system))
    classes: dict[tuple, GroupClass] = {}  # by signature
    parts, component_of = _partition(system)
    comps = tuple(Component({i: system.atoms[i].states for i in atoms},
                            tuple(_group(system, *g, mgr, classes) for g in groups), mgr) for atoms, groups in parts)
    for enc in (cls.encoding for cls in classes.values()):  # what a step reads
        enc.local_behavior, enc.connector_fn, enc.pairs_fn
    return SystemEncoding(system, mgr, comps, component_of)


class SymbolicEngine(Engine):
    """Stepper that works on the encoded system only.

    A step draws from the encoding's kept read (`SystemEncoding`): per
    component its group entries and their summed count.  At a state that
    is not the kept read's (a reset, a state set from outside, or one
    `survivors` read since the last step) the step first moves the kept
    read there (`SystemEncoding.read`, which raises its ValueError).  No
    positive count is deadlock; with one, its component is taken, else a
    component is drawn by its count (`_draw`, with a coin), and a uniform
    survivor of it is picked (`Component.pick`) with coins from the
    engine's generator; the pool is never enumerated.  A survivor is
    enabled, so the step moves its owners (`Engine._fire`) without
    `model.step`'s check against the pool, and then re-reads the drawn
    component alone at the state fired to, its owners being the only
    atoms that moved: its class-table entries, at their keys unpacked from
    one sum over its owners (`Component.entries`), and their summed count.
    """

    def __init__(self, system: SystemModel, seed: int = 0):
        self.encoding = build(system)
        self.system = system
        self.seed = seed
        self.reset()

    def step(self) -> Optional[tuple[Interaction, GlobalState]]:
        """Fire one surviving interaction; None signals deadlock."""
        enc, state = self.encoding, self.state
        if state is not enc._last:  # reset, a state set from outside or read by `survivors`
            enc.read(state)
        counts = enc._counts
        live = len(counts) - counts.count(0)
        if not live:
            return None
        k = _draw(counts, self._rng) if live > 1 else counts.index(max(counts))
        reads = enc._reads
        packed, es = reads[k]
        c = enc.components[k]
        a = c.pick(packed, es, self._rng)
        self._fire(a)
        # only the drawn component's owners moved: re-read it alone, here
        # rather than through `read`, which would compare every atom
        state = self.state
        _, es = reads[k] = c.entries(state)
        counts[k] = sum(map(_count, es))
        enc._lists[k] = None
        enc._last = state
        return a, state
