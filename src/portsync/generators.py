"""Built-in model families and a seeded random model generator.

Every model here is written as model text, one declaration per line,
and parsed, so each is validated when it is built; each atom's lines
come from `dsl.atom_lines` and each random connector's term from
`dsl.term_text`, which `serialize` uses too, and `portsync gen` writes
that text back out.

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
  task while resuming the other: 2*n*(n-1)*m connectors.  Pool size
  2*n*n*m, dense.
- random_system(seed, bounds): arbitrary valid systems for differential
  tests, deterministic in the seed: random atoms and fusion terms written
  as text, then a priority drawn from the parsed pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import permutations

from .connectors import AcTerm, Factor, PortLeaf, fusion
from .dsl import atom_lines, parse, term_text
from .model import ExplicitPairs, MaximalProgress, Priority, SystemModel


def _atom(name: str, ports: list[str], states: list[str], trans: list[tuple[str, str, str]]) -> list[str]:
    """The declaration lines of an atom whose first state is its initial
    one; each transition is (source, label as written, target)."""
    return atom_lines(name, ports, states, states[0], trans)


def _system(name: str, body: list[str]) -> SystemModel:
    """The system of the declaration lines `body` under maximal progress,
    parsed and validated."""
    return parse("\n".join([f"system {name} {{", *body, "priority maximal_progress;", "}"]))


def modulo8() -> SystemModel:
    return _system("modulo8", [
        *_atom("B1", ["p", "q"], ["l1", "l2"], [("l1", "p", "l2"), ("l2", "p, q", "l1")]),
        *_atom("B2", ["r", "s"], ["l3", "l4"], [("l3", "r", "l4"), ("l4", "r, s", "l3")]),
        *_atom("B3", ["t", "u"], ["l5", "l6"], [("l5", "t", "l6"), ("l6", "t, u", "l5")]),
        "connector x = p' [[q r]' [[s t]' u]];",
    ])


def gen_bus(n: int) -> SystemModel:
    if n < 1:
        raise ValueError("bus needs at least one cluster")
    atoms, connectors = [], []
    for k in range(1, n + 1):
        for i in range(1, 5):
            c, s = f"c{i}_{k}", f"s{i}_{k}"
            atoms += _atom(f"member{i}_{k}", [c, s], ["A", "B"], [("A", c, "B"), ("B", s, "A")])
            connectors.append(f"connector claim{i}_{k} = {c};")
        connectors.append(f"connector bus_{k} = s1_{k}' s2_{k}' s3_{k}' s4_{k};")
    return _system(f"bus{n}", atoms + connectors)


def gen_tasks(n: int, m: int) -> SystemModel:
    if n < 2 or m < 1:
        raise ValueError("tasks needs at least two tasks and one processor")
    procs = range(1, m + 1)
    lines = []
    for j in range(1, n + 1):
        ports, trans = [], []
        for i in procs:
            b, f, p, r = f"b{i}_{j}", f"f{i}_{j}", f"p{i}_{j}", f"r{i}_{j}"
            ports += [b, f, p, r]
            trans += [("s", b, f"c{i}"), (f"c{i}", f, "s"), (f"c{i}", p, f"w{i}"), (f"w{i}", r, f"c{i}")]
        lines += _atom(f"T{j}", ports, ["s", *(f"c{i}" for i in procs), *(f"w{i}" for i in procs)], trans)
    for i in procs:
        go, halt = f"go{i}", f"halt{i}"
        lines += _atom(f"P{i}", [go, halt], ["l0", "l1", "l2"],
                       [("l0", go, "l1"), ("l1", halt, "l0"), ("l1", go, "l2"), ("l2", halt, "l1")])
    for j1, j2 in permutations(range(1, n + 1), 2):
        for i in procs:
            # task j2 starts on processor i, preempting task j1; task j1
            # finishes on processor i, resuming task j2
            lines.append(f"connector beg_{j2}_over_{j1}_{i} = [b{i}_{j2} go{i}]' p{i}_{j1};")
            lines.append(f"connector fin_{j1}_back_{j2}_{i} = [f{i}_{j1} halt{i}]' r{i}_{j2};")
    return _system(f"tasks{n}x{m}", lines)


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
            return PortLeaf(budget.pop())
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
    """Deterministic pseudo-random valid system, named `random<seed>` (so
    the seed is at least 0): its atoms and connectors are written as
    model text and parsed, then a priority is drawn from the parsed pool."""
    rng = random.Random(seed)
    n_atoms = rng.randint(1, bounds.max_atoms)
    lines: list[str] = []
    all_ports: list[str] = []
    for k in range(n_atoms):
        n_states = rng.randint(1, bounds.max_states)
        states = [f"q{k}_{j}" for j in range(n_states)]
        n_ports = rng.randint(1, bounds.max_ports)
        ports = [f"p{k}_{j}" for j in range(n_ports)]
        all_ports.extend(ports)
        trans: list[tuple[str, str, str]] = []
        for s in states:
            for _ in range(rng.randint(0, 2)):
                target = rng.choice(states)
                size = rng.randint(1, len(ports))
                label = ", ".join(sorted(rng.sample(ports, size)))
                trans.append((s, label, target))
        # a label is written sorted, so a repeated transition repeats its text
        lines += _atom(f"A{k}", ports, states, list(dict.fromkeys(trans)))
    for c in range(rng.randint(1, max(1, n_atoms))):
        k = rng.randint(1, min(6, len(all_ports)))
        chosen = rng.sample(all_ports, k)
        term = random_monomial_term(rng, chosen, bounds.max_depth)
        lines.append(f"connector c{c} = {term_text(term)};")
    system = parse("\n".join([f"system random{seed} {{", *lines, "}"]))
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
    return system if priority is None else replace(system, priority=priority)
