"""Boolean encoding of a system and the symbolic execution engine.

Encoding, over one variable per state and per port (plus a primed copy
of each port for priorities):

- behavior: per atom, a disjunct per control state (one-hot state cube
  conjoined with the port minterms of its outgoing transitions) plus an
  idle disjunct with all the atom's ports false;
- connectors: per connector, its causal rules conjoined with the root
  clause and with the negation of every port foreign to the connector;
  the system-wide function is the disjunction over connectors;
- priority: for explicit pairs, a static relation R(P, P') between an
  interaction over the plain port copies and a dominator over the primed
  copies, as full minterms.  Maximal progress needs no relation: its R,
  the strict-subset relation, is built only to report `fp_nodes`.

Atoms linked by a connector or an explicit priority pair form one
independent component, encoded on its own over its own ports in the
shared manager (a system of one component is its own only component).

The build also keeps each atom's behavior restricted to each of its
control states.  A component's survivor function at its local state
conjoins the current states' local behaviors (a balanced fold, so after
a move only the ands along the changed atoms' path are new work), which
is the behavior restricted to the state, and then the connectors, giving
the enabled function g.  Under maximal progress the survivor function
holds g's maximal models (`BddManager.maximal`).  Under explicit pairs the
possible dominators are g and any active interaction a pair lists as a
dominator outside the pool.  A one-level shift moves them onto the
primed copies, each primed port following its port in the order; the
dominated set is the relational product excluded(P) = exists P'.
dominators(P') & R(P, P'), and the survivor function is g & ~excluded.
It is memoised per local state, bounding the memo by the sum of the
components' local state spaces, not their product.  A step draws a
component that has survivors, weighted by survivor counts, and picks
one of its satisfying valuations.  No primed behavior, primed
connectors or pool-sized priority function is built.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

from . import boolfunc as bf
from .bdd import BddManager, BddRef
from .causal import causal_rules, rules_to_formula, tau
from .connectors import Interaction, support
from .model import (
    AtomicBehavior,
    Connector,
    ExplicitPairs,
    GlobalState,
    MaximalProgress,
    SystemModel,
    Trace,
    ValidationError,
    effective_pairs,
    validate,
)

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


def encode_atom(atom: AtomicBehavior, mgr: BddManager) -> BddRef:
    """Behavior of one atom: state-consistent firings or idleness."""
    parts: list[BddRef] = []
    for q in atom.states:
        onehot = mgr.cube({state_var(atom, s): s == q for s in atom.states})
        labels = atom.labels_from.get(q, frozenset())
        if not labels:
            continue
        firings = mgr.or_all(
            mgr.cube({p: p in lbl for p in atom.ports}) for lbl in labels
        )
        parts.append(onehot & firings)
    idle = mgr.cube({p: False for p in atom.ports})
    return mgr.or_all(parts) | idle


def encode_local(atom: AtomicBehavior, mgr: BddManager) -> dict[str, BddRef]:
    """The atom's behavior restricted to each of its control states."""
    f = encode_atom(atom, mgr)
    return {q: mgr.restrict_many(f, {state_var(atom, s): s == q for s in atom.states})
            for q in atom.states}


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


def encode_connector(conn: Connector, all_ports: tuple[str, ...], mgr: BddManager) -> BddRef:
    """Causal rules of one connector, with foreign ports forced false."""
    sup = support(conn.term)
    rules, root_clause = causal_rules(tau(conn.term))
    expr = rules_to_formula(rules, root_clause, sup)
    inside = _expr_bdd(mgr, expr)
    outside = mgr.cube({p: False for p in all_ports if p not in sup})
    return inside & outside


def encode_connectors(system: SystemModel, mgr: BddManager) -> BddRef:
    return mgr.or_all(encode_connector(c, system.all_ports, mgr) for c in system.connectors)


def encode_priority_pairs(
    pairs: frozenset[tuple[Interaction, Interaction]],
    all_ports: tuple[str, ...],
    mgr: BddManager,
) -> BddRef:
    """Priority relation as full minterms: a over the plain copies, its
    dominator over the primed copies."""
    disjuncts = []
    for lo, hi in sorted(pairs, key=lambda ab: (sorted(ab[0]), sorted(ab[1]))):
        assignment: dict[str, bool] = {p: p in lo for p in all_ports}
        assignment.update({prime(p): p in hi for p in all_ports})
        disjuncts.append(mgr.cube(assignment))
    return mgr.or_all(disjuncts)


def encode_strict_subset(ports: tuple[str, ...], mgr: BddManager) -> BddRef:
    """Maximal progress's relation: the plain copy is a strict subset of
    the primed copy.  Only `fp_nodes` reads it; the step takes maximal models."""
    subset = mgr.and_all(mgr.var(p).implies(mgr.var(prime(p))) for p in ports)
    equal = mgr.and_all(~(mgr.var(p) ^ mgr.var(prime(p))) for p in ports)
    return subset & ~equal


@dataclass
class SystemEncoding:
    system: SystemModel
    manager: BddManager
    behavior_fn: BddRef         # all atoms consistent with their state
    connector_fn: BddRef        # valuations that are pool interactions
    system_fn: BddRef           # behavior & connectors
    pairs_fn: BddRef            # explicit pairs' R over plain/primed ports, else false
    dominator_fn: BddRef        # the pool, plus listed dominators outside it
    local_behavior: tuple[dict[str, BddRef], ...]  # per atom: control state -> restricted f_atom
    port_names: tuple[str, ...]
    primed_names: tuple[str, ...]
    # the independent components (this encoding itself if one), and how
    # an encoding reads its own atoms' states out of a system state
    components: tuple["SystemEncoding", ...] = field(default=(), repr=False, compare=False)
    local_state: Callable[[GlobalState], GlobalState] = field(
        default=itemgetter(slice(None)), repr=False, compare=False)
    _survivor_memo: dict[GlobalState, BddRef] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.components:
            self.components = (self,)

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

    # Each atom's local behavior mentions only its own ports, so their
    # conjunction is restrict(f_B, state) (the same canonical node), and
    # the manager's op cache reuses every and below the atoms whose state
    # did not change since some earlier step.

    def active_fn(self, state: GlobalState) -> BddRef:
        return self.manager.and_all(
            local[q] for local, q in zip(self.local_behavior, state))

    def enabled_fn(self, state: GlobalState) -> BddRef:
        return self.active_fn(state) & self.connector_fn

    def survivor_fn(self, state: GlobalState) -> BddRef:
        fn = self._survivor_memo.get(state)
        if fn is not None:
            return fn
        m = self.manager
        fn = g = self.enabled_fn(state)
        if isinstance(self.system.priority, MaximalProgress):
            fn = m.maximal(g, self.port_names)
        elif self.pairs_fn != m.false:
            # the dominators are g, plus any active listed dominator
            # outside the pool; the state is restricted away, so only plain
            # ports remain, each of which the shift moves onto its primed copy
            dominators = g
            if self.dominator_fn != self.connector_fn:
                dominators = self.active_fn(state) & self.dominator_fn
            excluded = m.and_exists(m.shift(dominators), self.pairs_fn, self.primed_names)
            fn = g & ~excluded
        self._survivor_memo[state] = fn
        return fn

    def survivors(self, state: GlobalState) -> frozenset[Interaction]:
        """The union of the components' model sets at their local states."""
        return frozenset(a for c in self.components
                         for a in c.manager.iter_models(c.survivor_fn(c.local_state(state)), c.port_names))


def _encode(system: SystemModel, mgr: BddManager, local_behavior: tuple[dict[str, BddRef], ...],
            behavior: Optional[BddRef] = None, connector_fn: Optional[BddRef] = None) -> SystemEncoding:
    """The encoding of a system, or of one of its components, in `mgr`."""
    behavior = encode_behavior(system, mgr) if behavior is None else behavior
    connector_fn = encode_connectors(system, mgr) if connector_fn is None else connector_fn
    pr = system.priority
    ports = system.all_ports
    dominator_fn = connector_fn
    pairs_fn = mgr.false
    if isinstance(pr, ExplicitPairs):
        pairs = effective_pairs(pr, system.gamma)
        pairs_fn = encode_priority_pairs(pairs, ports, mgr)
        # a listed dominator need only be active, not offered by a connector
        outside = {hi for _, hi in pairs} - system.gamma
        dominator_fn = mgr.or_all(
            [connector_fn, *(mgr.cube({p: p in hi for p in ports}) for hi in outside)])
    elif pr is not None and not isinstance(pr, MaximalProgress):
        raise TypeError(f"unknown priority model: {pr!r}")
    return SystemEncoding(
        system=system,
        manager=mgr,
        behavior_fn=behavior,
        connector_fn=connector_fn,
        system_fn=behavior & connector_fn,
        pairs_fn=pairs_fn,
        dominator_fn=dominator_fn,
        local_behavior=local_behavior,
        port_names=ports,
        primed_names=tuple(prime(p) for p in ports),
    )


def build(system: SystemModel) -> SystemEncoding:
    diags = validate(system)
    if diags:
        raise ValidationError(diags)
    mgr = BddManager(variable_order(system))
    local = tuple(encode_local(atom, mgr) for atom in system.atoms)
    parts = components(system)
    if len(parts) == 1:
        return _encode(system, mgr, local)
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
        enc = _encode(sub, mgr, tuple(local[i] for i in atoms))
        enc.local_state = itemgetter(*atoms) if len(atoms) > 1 else itemgetter(slice(atoms[0], atoms[0] + 1))
        encs.append(enc)
    # a pool interaction of the system is one of a component's, with
    # every port outside that component false
    connector_fn = mgr.or_all(
        e.connector_fn & mgr.cube({p: False for p in system.all_ports if p not in e.system.port_owner})
        for e in encs)
    enc = _encode(system, mgr, local, mgr.and_all(e.behavior_fn for e in encs), connector_fn)
    enc.components = tuple(encs)
    return enc


class SymbolicEngine:
    """Stepper that works on the encoded system only.

    The per-step work is each component's survivor function at its local
    state, looked up or composed from the precomputed functions, a
    weighted draw of a component, and one satisfying-assignment pick; the
    pool is never enumerated.
    """

    def __init__(self, system: SystemModel, seed: int = 0):
        self.encoding = build(system)
        self.system = system
        self.seed = seed
        self.state: GlobalState = system.initial_state()
        self.steps_taken = 0
        self._rng = random.Random(seed)
        # per component: local-state reader, encoding, (survivor function,
        # survivor count) by local state, and the shift from a count over all
        # variables to one over its ports (None: one component, no draw)
        comps = self.encoding.components
        width = len(self.encoding.manager.variables)
        self._parts = tuple((c.local_state, c, {}, width - len(c.port_names) if len(comps) > 1 else None)
                            for c in comps)

    def reset(self) -> None:
        self.state = self.system.initial_state()
        self.steps_taken = 0
        self._rng = random.Random(self.seed)

    def survivors(self, state: Optional[GlobalState] = None) -> frozenset[Interaction]:
        return self.encoding.survivors(self.state if state is None else state)

    def step(self) -> Optional[tuple[Interaction, GlobalState]]:
        """Fire one surviving interaction; None signals deadlock.  The
        component is drawn weighted by survivor counts, if several have any."""
        state = self.state
        live = []
        for local, enc, table, shift in self._parts:
            key = local(state)
            entry = table.get(key)
            if entry is None:
                fn = enc.survivor_fn(key)
                count = fn != enc.manager.false if shift is None else enc.manager.sat_count(fn) >> shift
                entry = table[key] = (fn, count)
            if entry[1]:
                live.append(entry)
        if not live:
            return None
        fn = live[0][0] if len(live) == 1 else self._rng.choices(live, [w for _, w in live])[0][0]
        a = self.encoding.manager.pick_sat(fn, seed=self._rng.getrandbits(64))
        atoms, nxt = self.system.atoms, list(state)
        for i in sorted({self.system.port_owner[p] for p in a}):
            targets = atoms[i].targets(state[i], a & atoms[i].port_set)
            nxt[i] = targets[0] if len(targets) == 1 else self._rng.choice(sorted(targets))
        self.state = tuple(nxt)
        self.steps_taken += 1
        return a, self.state

    def run(self, steps: int) -> Trace:
        initial = self.state
        entries: list[tuple[Interaction, GlobalState]] = []
        deadlocked = False
        t0 = time.perf_counter_ns()
        for _ in range(steps):
            result = self.step()
            if result is None:
                deadlocked = True
                break
            entries.append(result)
        total = time.perf_counter_ns() - t0
        return Trace(initial=initial, steps=tuple(entries), deadlocked=deadlocked, total_ns=total)
