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
Each function is built on first read, and the build reads only what a
step reads: each component's local behaviors, f_C and priority inputs.

A component's survivor function at its local state conjoins the
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

Each component keeps one survivor table: per local state, the survivor
function, whether it has a survivor, and its number of models over the
component's own ports (`sat_count` over every variable, shifted right by
the variables outside those ports), counted on the first draw among two
or more live components that needs it.  The tables hold at most the sum
of the components' local state spaces, not their product.  `survivors`
(which `check` reads) and the step read the same entries.  The engine
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
from .connectors import Interaction, support
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


def components(system: SystemModel) -> tuple[tuple[int, ...], ...]:
    """Atom indices of each independent component, in atom order: the owners
    of each connector's support and of both sides of each explicit effective
    pair are joined (maximal progress joins nothing: a dominated interaction
    lies inside its dominator's connector)."""
    groups = [support(c.term) for c in system.connectors]
    if isinstance(system.priority, ExplicitPairs):
        groups += [lo | hi for lo, hi in system.priority.closure]
    label = list(range(len(system.atoms)))  # each atom's component, as its least atom
    for ports in groups:
        joined = {label[system.port_owner[p]] for p in ports}
        if len(joined) > 1:
            label = [min(joined) if k in joined else k for k in label]
    return tuple(tuple(i for i, k in enumerate(label) if k == c) for c in dict.fromkeys(label))


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
    """The disjunction of the parts, each (its support U, a function G over
    U) widened to `ports` with every port outside U false, without widening
    any part: the `balanced` fold joins (U1, G1) and (U2, G2) into (U1 | U2,
    G1 & none(U2 - U1) | G2 & none(U1 - U2)) and closes the root with
    none(ports - U); no part gives false.  Leaves sorted by their deepest
    support level, then their highest, share ports with their neighbours;
    the order changes the time only, not the node."""
    def none(names: Iterable[str]) -> BddRef:
        return mgr.cube(dict.fromkeys(names, False))

    def deepest_then_highest(part: tuple[frozenset[str], BddRef]) -> tuple[int, int]:
        levels = [mgr.level_of(p) for p in part[0]] or [-1]
        return max(levels), min(levels)

    def join(a: tuple[frozenset[str], BddRef], b: tuple[frozenset[str], BddRef]):
        (u1, g1), (u2, g2) = a, b
        return u1 | u2, (g1 & none(u2 - u1)) | (g2 & none(u1 - u2))

    leaves = sorted(((frozenset(sup), g) for sup, g in parts), key=deepest_then_highest)
    sup, g = balanced(join, leaves, (frozenset(), mgr.false))
    return g & none(p for p in ports if p not in sup)


def encode_connectors(system: SystemModel, mgr: BddManager) -> BddRef:
    """The pool as a function over all ports: each connector's causal rules
    over its own ports, joined by `union_join`."""
    def leaf(conn: Connector) -> tuple[frozenset[str], BddRef]:
        sup = support(conn.term)
        rules, root_clause = causal_rules(tau(conn.term))
        return sup, _expr_bdd(mgr, rules_to_formula(rules, root_clause, sup))

    return union_join(map(leaf, system.connectors), system.all_ports, mgr)


def encode_priority_pairs(
    pairs: frozenset[tuple[Interaction, Interaction]],
    all_ports: tuple[str, ...],
    mgr: BddManager,
) -> BddRef:
    """Priority relation: per pair (lo, hi), lo over the plain copies and
    hi over the primed copies of their ports, joined by `union_join`; no
    pair gives false."""
    def leaf(lo: Interaction, hi: Interaction) -> tuple[list[str], BddRef]:
        sup = lo | hi
        return [*sup, *map(prime, sup)], mgr.cube({**{p: p in lo for p in sup}, **{prime(p): p in hi for p in sup}})

    return union_join((leaf(lo, hi) for lo, hi in pairs), [*all_ports, *map(prime, all_ports)], mgr)


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
    # an encoding reads its own atoms' states out of a system state
    components: tuple["SystemEncoding", ...] = field(default=(), repr=False, compare=False)
    local_state: Callable[[GlobalState], GlobalState] = field(
        default=itemgetter(slice(None)), repr=False, compare=False)
    # local state -> [survivor function, whether it has a survivor, its
    # number of survivors over our ports (None until a draw needs it), this
    # encoding, which counts them]: the one memo the step and `survivors` read
    survivor_table: dict[GlobalState, list] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.components:
            self.components = (self,)

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
        return m.or_all([self.connector_fn, *(m.cube({p: p in hi for p in self.port_names}) for hi in outside)])

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
        """The survivor function at a local state; a miss enters it in `survivor_table`."""
        entry = self.survivor_table.get(state)
        if entry is not None:
            return entry[0]
        m = self.manager
        # each atom's local behavior mentions only its own ports and holds
        # when it is idle, so their conjunction, restrict(f_B, state), can be
        # conjoined with a function block by block
        owners, blocks = self.local_blocks
        factors = [self.local_behavior[i][state[i]] for i in owners]
        fn = g = m.and_local(self.connector_fn, blocks, factors)
        if isinstance(self.system.priority, MaximalProgress):
            fn = m.maximal(g, self.port_names)
        elif self.pairs_fn != m.false:
            # the dominators are the active pool interactions (g) and listed
            # dominators outside the pool; the state is restricted away, so only
            # plain ports remain, each of which the shift moves onto its primed copy
            dominators = m.and_local(self.dominator_fn, blocks, factors)
            excluded = m.and_exists(m.shift(dominators), self.pairs_fn, self.primed_names)
            fn = g & ~excluded
        self.survivor_table[state] = [fn, fn != m.false, None, self]
        return fn

    def survivor_count(self, entry: list) -> int:
        """A `survivor_table` entry's number of survivors, filled in on the first
        call: its function mentions only our ports, so each other variable
        doubles its model count."""
        if entry[2] is None:
            m = self.manager
            entry[2] = m.sat_count(entry[0]) >> (len(m.variables) - len(self.port_names))
        return entry[2]

    def survivors(self, state: GlobalState) -> frozenset[Interaction]:
        """The union of the components' model sets at their local states."""
        return frozenset(a for c in self.components
                         for a in c.manager.iter_models(c.survivor_fn(c.local_state(state)), c.port_names))


def build(system: SystemModel) -> SystemEncoding:
    diags = validate(system)
    if diags:
        raise ValidationError(diags)
    if system.priority is not None and not isinstance(system.priority, (MaximalProgress, ExplicitPairs)):
        raise TypeError(f"unknown priority model: {system.priority!r}")
    mgr = BddManager(variable_order(system))
    parts = components(system)
    if len(parts) == 1:
        encs = [SystemEncoding(system, mgr)]
    else:
        encs = []
        for atoms in parts:
            # the sub-system of the component's atoms, connectors and pairs
            def ours(ports: frozenset[str]) -> bool:
                return any(system.port_owner[p] in atoms for p in ports)
            pr = system.priority
            if isinstance(pr, ExplicitPairs):
                pr = ExplicitPairs(frozenset(ab for ab in pr.closure if ours(ab[0] | ab[1])))
            sub = SystemModel(system.name, tuple(system.atoms[i] for i in atoms),
                              tuple(c for c in system.connectors if ours(support(c.term))), pr)
            reader = itemgetter(*atoms) if len(atoms) > 1 else itemgetter(slice(atoms[0], atoms[0] + 1))
            encs.append(SystemEncoding(sub, mgr, local_state=reader))
    for e in encs:
        e.local_behavior, e.connector_fn, e.pairs_fn, e.dominator_fn  # what a step reads
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
        a = self.encoding.manager.pick_sat(entries[k][0], self._rng)
        self.state = fire(self.system, state, a, self._rng)
        self._fired_to, self._moved = self.state, k
        self.steps_taken += 1
        return a, self.state
