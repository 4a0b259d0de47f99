"""Built-in model families and a seeded random model generator.

- modulo8: three two-state counters chained by one connector whose
  causal depth makes the pool {p, pqr, pqrst, pqrstu}; with maximal
  progress the run is the binary-counter cycle.
- bus(n): n independent clusters of four two-state members; everyone
  first raises its c port (singleton connectors), then the cluster bus
  collects s ports with three triggers and one synchron.  Sparse pool,
  cheap activity checks.
- tasks(n, m): n tasks sharing m processors with preemption: for every
  ordered pair of distinct tasks and each processor there is a connector
  starting one task while preempting the other, and one finishing a
  task while resuming the other.  Pool size 2*n*(n-1)*m, dense.
- random_system(seed, bounds): arbitrary valid systems for differential
  tests, deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .connectors import AcTerm, Factor, Fusion, PortLeaf, fusion
from .model import (
    AtomicBehavior,
    Connector,
    ExplicitPairs,
    MaximalProgress,
    Priority,
    SystemModel,
    Transition,
)


def _syn(term: AcTerm) -> Factor:
    return Factor(term, False)


def _trig(term: AcTerm) -> Factor:
    return Factor(term, True)


def _port(name: str) -> PortLeaf:
    return PortLeaf(name)


def modulo8() -> SystemModel:
    def counter(name: str, s0: str, s1: str, tick: str, carry: str) -> AtomicBehavior:
        return AtomicBehavior(
            name=name,
            states=(s0, s1),
            init=s0,
            ports=(tick, carry),
            transitions=(
                Transition(s0, frozenset((tick,)), s1),
                Transition(s1, frozenset((tick, carry)), s0),
            ),
        )

    # p' [[q r]' [[s t]' u]]
    inner2 = fusion((_trig(Fusion((_syn(_port("s")), _syn(_port("t"))))), _syn(_port("u"))))
    inner1 = fusion((_trig(Fusion((_syn(_port("q")), _syn(_port("r"))))), _syn(inner2)))
    term = fusion((_trig(_port("p")), _syn(inner1)))
    return SystemModel(
        name="modulo8",
        atoms=(
            counter("B1", "l1", "l2", "p", "q"),
            counter("B2", "l3", "l4", "r", "s"),
            counter("B3", "l5", "l6", "t", "u"),
        ),
        connectors=(Connector("x", term),),
        priority=MaximalProgress(),
    )


def gen_bus(n: int) -> SystemModel:
    if n < 1:
        raise ValueError("bus needs at least one cluster")
    atoms: list[AtomicBehavior] = []
    connectors: list[Connector] = []
    for k in range(1, n + 1):
        sends = []
        for i in range(1, 5):
            c, s = f"c{i}_{k}", f"s{i}_{k}"
            atoms.append(AtomicBehavior(
                name=f"member{i}_{k}",
                states=("A", "B"),
                init="A",
                ports=(c, s),
                transitions=(
                    Transition("A", frozenset((c,)), "B"),
                    Transition("B", frozenset((s,)), "A"),
                ),
            ))
            connectors.append(Connector(f"claim{i}_{k}", _port(c)))
            sends.append(s)
        bus_term = fusion((
            _trig(_port(sends[0])),
            _trig(_port(sends[1])),
            _trig(_port(sends[2])),
            _syn(_port(sends[3])),
        ))
        connectors.append(Connector(f"bus_{k}", bus_term))
    return SystemModel(
        name=f"bus{n}",
        atoms=tuple(atoms),
        connectors=tuple(connectors),
        priority=MaximalProgress(),
    )


def gen_tasks(n: int, m: int) -> SystemModel:
    if n < 2 or m < 1:
        raise ValueError("tasks needs at least two tasks and one processor")
    atoms: list[AtomicBehavior] = []
    connectors: list[Connector] = []
    for j in range(1, n + 1):
        states = ["s"] + [f"c{i}" for i in range(1, m + 1)] + [f"w{i}" for i in range(1, m + 1)]
        ports: list[str] = []
        transitions: list[Transition] = []
        for i in range(1, m + 1):
            b, f, p, r = (f"b{i}_{j}", f"f{i}_{j}", f"p{i}_{j}", f"r{i}_{j}")
            ports += [b, f, p, r]
            transitions += [
                Transition("s", frozenset((b,)), f"c{i}"),
                Transition(f"c{i}", frozenset((f,)), "s"),
                Transition(f"c{i}", frozenset((p,)), f"w{i}"),
                Transition(f"w{i}", frozenset((r,)), f"c{i}"),
            ]
        atoms.append(AtomicBehavior(
            name=f"T{j}",
            states=tuple(states),
            init="s",
            ports=tuple(ports),
            transitions=tuple(transitions),
        ))
    for i in range(1, m + 1):
        s, e = f"go{i}", f"halt{i}"
        atoms.append(AtomicBehavior(
            name=f"P{i}",
            states=("l0", "l1", "l2"),
            init="l0",
            ports=(s, e),
            transitions=(
                Transition("l0", frozenset((s,)), "l1"),
                Transition("l1", frozenset((e,)), "l0"),
                Transition("l1", frozenset((s,)), "l2"),
                Transition("l2", frozenset((e,)), "l1"),
            ),
        ))
    for j1 in range(1, n + 1):
        for j2 in range(1, n + 1):
            if j1 == j2:
                continue
            for i in range(1, m + 1):
                # task j2 starts on processor i, preempting task j1
                begin = fusion((
                    _trig(Fusion((_syn(_port(f"b{i}_{j2}")), _syn(_port(f"go{i}"))))),
                    _syn(_port(f"p{i}_{j1}")),
                ))
                connectors.append(Connector(f"beg_{j2}_over_{j1}_{i}", begin))
                # task j1 finishes on processor i, resuming task j2
                finish = fusion((
                    _trig(Fusion((_syn(_port(f"f{i}_{j1}")), _syn(_port(f"halt{i}"))))),
                    _syn(_port(f"r{i}_{j2}")),
                ))
                connectors.append(Connector(f"fin_{j1}_back_{j2}_{i}", finish))
    return SystemModel(
        name=f"tasks{n}x{m}",
        atoms=tuple(atoms),
        connectors=tuple(connectors),
        priority=MaximalProgress(),
    )


@dataclass(frozen=True)
class RandomBounds:
    max_atoms: int = 3
    max_states: int = 3
    max_ports: int = 2
    max_depth: int = 3


def random_monomial_term(rng: random.Random, ports: list[str], max_depth: int) -> AcTerm:
    """Random fusion term over (a subset of) `ports`; each port occurs at
    most once, nesting bounded by `max_depth`."""
    budget = list(ports)
    rng.shuffle(budget)
    del budget[rng.randint(1, len(budget)):]

    def grow(depth: int) -> AcTerm | None:
        if not budget:
            return None
        if depth <= 0 or len(budget) == 1 or rng.random() < 0.3:
            return _port(budget.pop())
        factors = []
        for _ in range(rng.randint(2, 3)):
            sub = grow(depth - 1)
            if sub is not None:
                factors.append(Factor(sub, rng.random() < 0.5))
        return fusion(tuple(factors)) if factors else None

    term = grow(max_depth)
    assert term is not None  # budget starts nonempty
    return term


def random_system(seed: int, bounds: RandomBounds = RandomBounds()) -> SystemModel:
    """Deterministic pseudo-random valid system."""
    rng = random.Random(seed)
    n_atoms = rng.randint(1, bounds.max_atoms)
    atoms: list[AtomicBehavior] = []
    all_ports: list[str] = []
    for k in range(n_atoms):
        n_states = rng.randint(1, bounds.max_states)
        states = tuple(f"q{k}_{j}" for j in range(n_states))
        n_ports = rng.randint(1, bounds.max_ports)
        ports = tuple(f"p{k}_{j}" for j in range(n_ports))
        all_ports.extend(ports)
        transitions: list[Transition] = []
        for s in states:
            for _ in range(rng.randint(0, 2)):
                target = rng.choice(states)
                size = rng.randint(1, len(ports))
                label = frozenset(rng.sample(ports, size))
                transitions.append(Transition(s, label, target))
        atoms.append(AtomicBehavior(
            name=f"A{k}",
            states=states,
            init=states[0],
            ports=ports,
            transitions=tuple(dict.fromkeys(transitions)),
        ))
    connectors: list[Connector] = []
    for c in range(rng.randint(1, max(1, n_atoms))):
        k = rng.randint(1, min(6, len(all_ports)))
        chosen = rng.sample(all_ports, k)
        term = random_monomial_term(rng, chosen, bounds.max_depth)
        connectors.append(Connector(f"c{c}", term))
    system = SystemModel(
        name=f"random{seed}",
        atoms=tuple(atoms),
        connectors=tuple(connectors),
        priority=None,
    )
    priority: Priority = None
    roll = rng.random()
    if roll < 0.5:
        priority = MaximalProgress()
    elif roll < 0.75:
        pool = sorted(system.gamma, key=lambda a: tuple(sorted(a)))
        pairs: set[tuple[frozenset[str], frozenset[str]]] = set()
        if len(pool) >= 2:
            for _ in range(rng.randint(1, 3)):
                lo, hi = rng.sample(pool, 2)
                if all(a != b for a, b in ExplicitPairs(frozenset(pairs | {(lo, hi)})).closure):
                    pairs.add((lo, hi))
        if pairs:
            priority = ExplicitPairs(frozenset(pairs))
    if priority is not None:
        system = SystemModel(
            name=system.name,
            atoms=system.atoms,
            connectors=system.connectors,
            priority=priority,
        )
    return system
