"""Core system model and reference semantics.

A system is a set of atomic components (labeled transition systems over
disjoint port sets) glued by named connectors and an optional priority
order.  The interaction pool gamma is the union of the connectors'
interaction sets, with the empty interaction removed.  One step of the
system fires a single interaction that is enabled (every atom owning a
port of it has a matching transition) and not dominated under the
priority order.

Functions here are the executable reference semantics; the two engines
must agree with them (and with each other) on survivor sets at every
reachable state.
"""

from __future__ import annotations

import random
import re
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import count
from typing import Callable, Iterable, Mapping, Optional, Union

from .connectors import AcTerm, Interaction, interaction_key, interactions_of, template_of

GlobalState = tuple[str, ...]
MoveTable = Mapping[str, tuple[str, ...]]  # a label's targets from each state it leaves

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ModelError(Exception):
    pass


class ValidationError(ModelError):
    def __init__(self, diagnostics: list["Diagnostic"]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class NotEnabledError(ModelError):
    """Raised when step() is asked to fire a non-enabled interaction."""


@dataclass(frozen=True)
class Diagnostic:
    invariant: str  # short name of the violated invariant
    location: str   # model element, e.g. "atom B1" or "connector x"
    message: str
    # the element as the keyword that opens it in model text and its
    # ordinal among that keyword's occurrences, e.g. ("connector", 1) or
    # ("system", 0).  Two elements may share a name, not a place.
    at: Optional[tuple[str, int]] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.location}: {self.message} [{self.invariant}]"


@dataclass(frozen=True, slots=True)
class Transition:
    source: str
    label: Interaction
    target: str


@dataclass(frozen=True)
class AtomicBehavior:
    name: str
    states: tuple[str, ...]
    init: str
    ports: tuple[str, ...]
    transitions: tuple[Transition, ...]

    @cached_property
    def port_set(self) -> frozenset[str]:
        return frozenset(self.ports)

    @cached_property
    def moves(self) -> dict[Interaction, MoveTable]:
        """Per label, each state it leaves and its targets there, each once
        (the transitions are a relation, so a repeated one adds nothing), in
        declaration order (`_advance` takes the first without a generator)."""
        out: dict[Interaction, dict[str, tuple[str, ...]]] = {}
        for t in self.transitions:
            by = out.setdefault(t.label, {})
            targets = by.get(t.source, ())
            if t.target not in targets:
                by[t.source] = (*targets, t.target)
        return out

    @cached_property
    def labels_from(self) -> dict[str, frozenset[Interaction]]:
        out: dict[str, set[Interaction]] = {s: set() for s in self.states}
        for t in self.transitions:
            out.setdefault(t.source, set()).add(self.label_of[t.label])
        return {s: frozenset(v) for s, v in out.items()}

    @cached_property
    def label_of(self) -> dict[Interaction, Interaction]:
        """Each label to one object for it, the one `moves` keys it by
        (its first transition's), so lookups by a shared label hit by identity."""
        return {a: a for a in self.moves}


@dataclass(frozen=True)
class MaximalProgress:
    """Dominate every enabled interaction by its enabled strict supersets in gamma."""


@dataclass(frozen=True)
class ExplicitPairs:
    """User-listed domination pairs (low, high); closed transitively."""

    pairs: frozenset[tuple[Interaction, Interaction]]

    @cached_property
    def closure(self) -> frozenset[tuple[Interaction, Interaction]]:
        succ: dict[Interaction, set[Interaction]] = {}
        for lo, hi in self.pairs:
            succ.setdefault(lo, set()).add(hi)
        out: set[tuple[Interaction, Interaction]] = set()
        for start in succ:
            seen: set[Interaction] = set()
            stack = list(succ[start])
            while stack:
                nxt = stack.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                stack.extend(succ.get(nxt, ()))
            out.update((start, hi) for hi in seen)
        return frozenset(out)


Priority = Union[MaximalProgress, ExplicitPairs, None]


@dataclass(frozen=True, slots=True)
class Connector:
    """A named connector term, a value of its name and term alone.  At
    construction it computes `template`, the term over port indices and
    the ports they stand for (`connectors.template_of`), whose text is
    interned (`sys.intern`) so that connectors of one shape share one
    string, and `port_set`, the ports the term mentions.  Neither takes
    part in equality, hash or repr, and `dataclasses.replace` computes
    both again."""

    name: str
    term: AcTerm
    template: tuple[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    port_set: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        text, ports = template_of(self.term)
        object.__setattr__(self, "template", (sys.intern(text), ports))
        object.__setattr__(self, "port_set", frozenset(ports))


@dataclass(frozen=True)
class SystemModel:
    name: str
    atoms: tuple[AtomicBehavior, ...]
    connectors: tuple[Connector, ...]
    priority: Priority = None

    @cached_property
    def port_owner(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i, atom in enumerate(self.atoms):
            for p in atom.ports:
                out.setdefault(p, i)
        return out

    @cached_property
    def all_ports(self) -> tuple[str, ...]:
        return tuple(p for atom in self.atoms for p in atom.ports)

    @cached_property
    def gamma(self) -> frozenset[Interaction]:
        """Interaction pool: union over connectors, empty interaction removed.
        The interactions of a template (`Connector.template`) are enumerated
        once, over its port indices, and mapped onto each connector's ports."""
        shapes: dict[str, list[tuple[int, ...]]] = {}
        out: set[Interaction] = set()
        for c in self.connectors:
            text, ports = c.template
            shape = shapes.get(text)
            if shape is None:
                index = {p: i for i, p in enumerate(ports)}
                shape = shapes[text] = [tuple(index[p] for p in a) for a in interactions_of(c.term)]
            out.update(frozenset(map(ports.__getitem__, a)) for a in shape)
        out.discard(frozenset())
        return frozenset(out)

    @cached_property
    def dominators(self) -> dict[Interaction, tuple[Interaction, ...]]:
        """Each dominated interaction's dominators (`effective_pairs`), in
        the order of their sorted ports; computed once per model."""
        out: dict[Interaction, list[Interaction]] = {}
        for lo, hi in effective_pairs(self.priority, self.gamma):
            out.setdefault(lo, []).append(hi)
        return {lo: tuple(sorted(his, key=sorted)) for lo, his in out.items()}

    @cached_property
    def _diagnostics(self) -> tuple["Diagnostic", ...]:
        return tuple(_validate(self))

    @cached_property
    def _shares(self) -> dict[Interaction, tuple[tuple[int, Interaction, MoveTable], ...]]:
        return {}

    @cached_property
    def _triples(self) -> dict[tuple[int, Interaction], tuple[int, Interaction, MoveTable]]:
        """Per (atom index, share), the one triple `shares` hands out."""
        return {}

    def shares(self, a: Interaction) -> tuple[tuple[int, Interaction, MoveTable], ...]:
        """Per atom owning a port of `a`, in atom order: its index, its share
        a & ports(atom), the atom's own label object where it is one (so a
        label lookup hits by identity), and the atom's move table for that
        label (`AtomicBehavior.moves`; empty where the share is no label);
        memoised, one triple object per (atom, share) however many
        interactions hold that share.  ValueError names a port of `a` that
        no atom owns."""
        out = self._shares.get(a)
        if out is None:
            owner = self.port_owner
            try:
                owners = sorted({owner[p] for p in a})
            except KeyError as exc:
                raise ValueError(f"port {exc.args[0]!r} does not belong to the system") from None
            out, triples = [], self._triples
            for i in owners:
                atom = self.atoms[i]
                label = atom.label_of.get(share := a & atom.port_set, share)
                triple = triples.get((i, label))
                if triple is None:
                    triple = triples[i, label] = (i, label, atom.moves.get(label, {}))
                out.append(triple)
            out = self._shares[a] = tuple(out)
        return out

    def initial_state(self) -> GlobalState:
        return tuple(atom.init for atom in self.atoms)


@dataclass(frozen=True)
class Trace:
    """Execution record: (interaction, resulting state) per step."""

    initial: GlobalState
    steps: tuple[tuple[Interaction, GlobalState], ...]
    deadlocked: bool
    total_ns: int = 0

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def interactions(self) -> tuple[Interaction, ...]:
        return tuple(a for a, _ in self.steps)


class Engine:
    """The reset, the run loop and the end of a step both engines share,
    over their `system`, `seed` and `step()`, which fires one interaction
    and returns it with the new state, or None on deadlock.  Each engine
    keeps one read of a state, moved to any other state by one method
    (`EnumEngine._offered`, `SystemEncoding.read`: ValueError on a state
    of the wrong arity or one naming a control state its atom does not
    declare, as the reference's `_check_state` raises it).  After `_fire`
    the enumerative step updates it by the atoms `_fire` moved and the
    symbolic step re-reads the drawn component (`Component.read`, the
    one re-read of a component, which `SystemEncoding.read` calls too),
    so the state fired to needs no other read."""

    state: GlobalState

    def reset(self) -> None:
        self.state = self.system.initial_state()
        self.steps_taken = 0
        self._rng = random.Random(self.seed)

    def _fire(self, a: Interaction) -> list[tuple[int, tuple[str, ...]]]:
        """Move the owners of `a`, which must be enabled at our state (the
        step's survivors are), and count the step; return the moves
        (`_moves`), so that the step can update its kept read by the moved
        atoms alone.  A state fired to has the right arity, so only a step
        at another state need check it."""
        moves = _moves(self.system, self.state, a)
        self.state = _advance(self.state, moves, self._rng)
        self.steps_taken += 1
        return moves

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


def validate(system: SystemModel) -> list[Diagnostic]:
    """Structural well-formedness; each diagnostic names the violated
    invariant.  The diagnostics are computed once per model and each call
    returns them in a new list."""
    return list(system._diagnostics)


@cache
def _repeated(template: str) -> tuple[int, ...]:
    """The port indices a connector template writes more than once: it
    writes each occurrence of a port as its index."""
    return tuple(sorted(int(i) for i, n in Counter(re.findall(r"\d+", template)).items() if n > 1))


def _validate(system: SystemModel) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def bad_name(kind: str, name: str, where: str, at: tuple[str, int]) -> None:
        diags.append(Diagnostic("name-format", where, f"{kind} name {name!r} is not an identifier", at))

    if not _NAME_RE.match(system.name or ""):
        bad_name("system", system.name, f"system {system.name!r}", ("system", 0))

    seen_atoms: set[str] = set()
    seen_ports: dict[str, str] = {}
    trans_ordinal = count()
    for k, atom in enumerate(system.atoms):
        where, at = f"atom {atom.name}", ("atom", k)
        if not _NAME_RE.match(atom.name or ""):
            bad_name("atom", atom.name, where, at)
        if atom.name in seen_atoms:
            diags.append(Diagnostic("unique-atom-names", where, "duplicate atom name", at))
        seen_atoms.add(atom.name)
        if len(set(atom.states)) != len(atom.states):
            diags.append(Diagnostic("unique-states", where, "duplicate state names", at))
        if not atom.states:
            diags.append(Diagnostic("nonempty-states", where, "atom has no states", at))
        for s in atom.states:
            if not _NAME_RE.match(s or ""):
                bad_name("state", s, where, at)
        if atom.states and atom.init not in atom.states:
            diags.append(Diagnostic("init-state", where, f"initial state {atom.init!r} not declared", at))
        if len(set(atom.ports)) != len(atom.ports):
            diags.append(Diagnostic("unique-ports", where, "duplicate port names within atom", at))
        for p in atom.ports:
            if not _NAME_RE.match(p or ""):
                bad_name("port", p, where, at)
            if p in seen_ports:
                diags.append(Diagnostic(
                    "disjoint-ports", where,
                    f"port {p!r} already owned by {seen_ports[p]}", at))
            else:
                seen_ports[p] = atom.name
        state_set = set(atom.states)
        for n, t in enumerate(atom.transitions, 1):
            tw = f"{where} trans #{n} {t.source}->{t.target}"  # the n-th: endpoints may repeat
            tat = ("trans", next(trans_ordinal))
            if t.source not in state_set or t.target not in state_set:
                diags.append(Diagnostic("transition-endpoints", tw, "endpoint not a declared state", tat))
            if not t.label:
                diags.append(Diagnostic("nonempty-label", tw, "transition label is empty", tat))
            if not t.label <= atom.port_set:
                extra = sorted(t.label - atom.port_set)
                diags.append(Diagnostic("label-ports", tw, f"label uses foreign ports {extra}", tat))

    all_ports = set(seen_ports)
    seen_connectors: set[str] = set()
    for c, conn in enumerate(system.connectors):
        where, at = f"connector {conn.name}", ("connector", c)
        if not _NAME_RE.match(conn.name or ""):
            bad_name("connector", conn.name, where, at)
        if conn.name in seen_connectors:
            diags.append(Diagnostic("unique-connector-names", where, "duplicate connector name", at))
        seen_connectors.add(conn.name)
        unbound = sorted(conn.port_set - all_ports)
        if unbound:
            diags.append(Diagnostic("bound-ports", where, f"unbound ports {unbound}", at))
        term, ports = conn.template
        diags += [Diagnostic("linear-term", where, f"port {ports[k]!r} named more than once", at) for k in _repeated(term)]

    pr, where, at = system.priority, "priority", ("priority", 0)
    if not isinstance(pr, (MaximalProgress, ExplicitPairs, type(None))):
        diags.append(Diagnostic("priority-kind", where, f"unknown priority kind {pr!r}", at))
    if isinstance(pr, ExplicitPairs):
        for lo, hi in pr.pairs:
            loose = sorted((lo | hi) - all_ports)
            if loose:
                diags.append(Diagnostic("bound-ports", where, f"priority pair uses unbound ports {loose}", at))
            if lo == hi:
                diags.append(Diagnostic("strict-order", where, f"reflexive pair on {sorted(lo)}", at))
        for lo, hi in pr.closure:
            if lo == hi:
                diags.append(Diagnostic("strict-order", where, f"priority cycle through {sorted(lo)}", at))
                break
    return diags


def _check_arity(system: SystemModel, state: GlobalState) -> None:
    if len(state) != len(system.atoms):
        raise ValueError("state arity does not match the number of atoms")


def _undeclared(system: SystemModel, state: GlobalState) -> ValueError:
    """The error for a state that names a control state its atom does not
    declare, which an engine's kept read meets as a KeyError."""
    atom, q = next((atom, q) for atom, q in zip(system.atoms, state) if q not in atom.labels_from)
    return ValueError(f"atom {atom.name} declares no state {q!r}")


def _check_state(system: SystemModel, state: GlobalState) -> None:
    """ValueError on a state of the wrong arity or one naming a control
    state its atom does not declare, as the engines' reads raise it; each
    public function of the reference checks its state once."""
    _check_arity(system, state)
    if not all(q in atom.labels_from for atom, q in zip(system.atoms, state)):
        raise _undeclared(system, state)


def _moves(system: SystemModel, state: GlobalState, a: Interaction) -> Optional[list[tuple[int, tuple[str, ...]]]]:
    """Per atom owning a port of `a`, in atom order: its index and its
    targets on its share a & ports(atom); None if some owner has none.
    One memo read (`shares`) gives each owner's move table for its share,
    so each owner costs one lookup of its state there.  The callers check
    the state (`_check_state`), but for `equivalence.successors`, whose
    states are reachable."""
    moves = []
    for i, _, table in system.shares(a):
        targets = table.get(state[i])
        if targets is None:
            return None
        moves.append((i, targets))
    return moves


def act(system: SystemModel, state: GlobalState, a: Interaction) -> bool:
    """Is `a` active at `state`: every owning atom has a transition whose
    label equals exactly its share a & ports(atom)?  Atoms with no share
    do not constrain.  The empty interaction is vacuously active."""
    _check_state(system, state)
    return _moves(system, state, a) is not None


def enabled(system: SystemModel, state: GlobalState) -> frozenset[Interaction]:
    """Interactions of gamma active at `state` (before priority).
    Callers: `survivors`, and tests/test_model.py as the reference."""
    _check_state(system, state)
    return frozenset(a for a in system.gamma if _moves(system, state, a) is not None)


def effective_pairs(
    priority: Priority, gamma: frozenset[Interaction]
) -> frozenset[tuple[Interaction, Interaction]]:
    """The domination pairs both engines must agree on.

    MaximalProgress materializes strict-subset pairs within gamma, each
    interaction compared only with the ones that hold its least port;
    ExplicitPairs contributes its transitive closure (dominators need
    not belong to gamma).  The engines read them once per model, through
    `SystemModel.dominators`.
    """
    if priority is None:
        return frozenset()
    if isinstance(priority, MaximalProgress):
        holding: dict[str, list[Interaction]] = {}
        for b in gamma:
            for p in b:
                holding.setdefault(p, []).append(b)
        return frozenset((a, b) for a in gamma for b in (holding[min(a)] if a else gamma) if a < b)
    return priority.closure


def filter_priority(
    system: SystemModel, state: GlobalState, candidates: Iterable[Interaction]
) -> frozenset[Interaction]:
    """Drop candidates dominated by an *active* higher-priority interaction.

    Domination is activity-checked only: the dominator must be active at
    `state` but is not required to belong to gamma.  Callers: `survivors`,
    which checks the state, and tests/test_model.py as the reference.
    """
    dominators = system.dominators
    if not dominators:
        return frozenset(candidates)
    out = set()
    for a in candidates:
        doms = dominators.get(a, ())
        if not any(_moves(system, state, b) is not None for b in doms):
            out.add(a)
    return frozenset(out)


def survivors(system: SystemModel, state: GlobalState) -> frozenset[Interaction]:
    """Enabled interactions that survive the priority filter.  Callers:
    `reachable`, perfbench's `trace_failures` and four test files, as the
    reference semantics both engines are checked against.  ValueError as
    `enabled` raises it, which checks the state once."""
    return filter_priority(system, state, enabled(system, state))


def _enabled_moves(system: SystemModel, state: GlobalState, a: Interaction) -> list[tuple[int, tuple[str, ...]]]:
    """`_moves` of `a` at a checked state (`_check_state`); NotEnabledError
    unless `a` is empty or enabled.  The empty interaction moves no atom."""
    _check_state(system, state)
    moves = _moves(system, state, a)
    if a and (moves is None or a not in system.gamma):
        raise NotEnabledError(f"interaction {sorted(a)} is not enabled at {state}")
    return moves


def step(
    system: SystemModel,
    state: GlobalState,
    a: Interaction,
    rng: Optional[random.Random] = None,
) -> GlobalState:
    """Fire `a` at `state`; nondeterministic targets resolved by `rng`
    (first declared target if None).  The empty interaction is the
    identity.  Raises NotEnabledError if `a` is not enabled, ValueError
    on a port no atom owns, a state of the wrong arity or one naming a
    control state its atom does not declare."""
    return _advance(state, _enabled_moves(system, state, a), rng)


def _advance(state: GlobalState, moves: list[tuple[int, tuple[str, ...]]], rng: Optional[random.Random]) -> GlobalState:
    """`state` with each owner of `moves` at one of its targets, drawn by
    `rng` where it has several (the first declared if None)."""
    nxt = list(state)
    for i, targets in moves:
        nxt[i] = targets[0] if len(targets) == 1 or rng is None else rng.choice(sorted(targets))
    return tuple(nxt)


def successors(system: SystemModel, state: GlobalState, a: Interaction) -> frozenset[GlobalState]:
    """All states reachable by firing `a`: the one state `step` builds
    without a generator, each owner at its first declared target, and
    where owners have several targets the product of their choices.
    Raises as `step` does."""
    return _outcomes(state, _enabled_moves(system, state, a))


def _outcomes(state: GlobalState, moves: list[tuple[int, tuple[str, ...]]]) -> frozenset[GlobalState]:
    """Every state `moves` can lead to from `state`: the product of the
    owners' targets, the first declared one's state built by `_advance`.
    Callers: `successors`, and `equivalence.successors`, which skips the
    checks for `check_equivalence`."""
    outs = [_advance(state, moves, None)]
    for i, targets in moves:
        if len(targets) > 1:
            outs = [s[:i] + (t,) + s[i + 1:] for s in outs for t in targets]
    return frozenset(outs)


@dataclass(frozen=True)
class ReachableSet:
    states: frozenset[GlobalState]
    truncated: bool


def walk(system: SystemModel, bound: int, expand: Callable[[GlobalState], Iterable[GlobalState]]) -> ReachableSet:
    """Breadth-first walk from the initial state over `expand`, which
    returns a state's successors.  Past `bound` states no new state is
    taken (the set is truncated).  `expand` is called for every queued
    state, but its successors are read only until the walk truncates (a
    generator's side effects past that point are lost)."""
    init = system.initial_state()
    seen: set[GlobalState] = {init}
    queue: deque[GlobalState] = deque((init,))
    truncated = False
    while queue:
        nexts = expand(queue.popleft())
        if truncated:  # no state can change the set any more
            continue
        for t in nexts:
            if t in seen:
                continue
            if len(seen) >= bound:
                truncated = True
                break
            seen.add(t)
            queue.append(t)
    return ReachableSet(frozenset(seen), truncated)


def reachable(system: SystemModel, bound: int = 100000) -> ReachableSet:
    """BFS over priority-filtered steps, truncated at `bound` states; it
    fires the survivors by `interaction_key` and takes each one's
    successors sorted, so a truncated set is the same in every process.
    Callers: five test files, as the reference walk."""
    return walk(system, bound, lambda s: (t for a in sorted(survivors(system, s), key=interaction_key)
                                          for t in sorted(successors(system, s, a))))
