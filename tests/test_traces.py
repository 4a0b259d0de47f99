"""Same-seed traces of both engines, pinned as hashes.

A change that keeps the semantics and the pick keeps every hash; one that
changes the traces on purpose updates them and says so.  The hashes do
not depend on PYTHONHASHSEED.
"""

import hashlib

import pytest

from portsync.connectors import Factor, Fusion, PortLeaf
from portsync.enumerative import EnumEngine
from portsync.generators import gen_bus, gen_tasks
from portsync.model import AtomicBehavior, Connector, ExplicitPairs, SystemModel, Transition, effective_pairs
from portsync.symbolic import SymbolicEngine


def _tasks_pairs(n, m):
    s = gen_tasks(n, m)
    return SystemModel(s.name, s.atoms, s.connectors, ExplicitPairs(effective_pairs(s.priority, s.gamma)))


def _renamed(s, tag):
    """s with every atom, port and connector name prefixed by `tag`."""
    def term(t):
        if isinstance(t, PortLeaf):
            return PortLeaf(tag + t.port)
        if isinstance(t, Fusion):
            return Fusion(tuple(Factor(term(f.term), f.trigger) for f in t.factors))
        return t

    atoms = tuple(AtomicBehavior(tag + a.name, a.states, a.init, tuple(tag + p for p in a.ports),
                                 tuple(Transition(t.source, frozenset(tag + p for p in t.label), t.target)
                                       for t in a.transitions))
                  for a in s.atoms)
    return SystemModel(tag + s.name, atoms, tuple(Connector(tag + c.name, term(c.term)) for c in s.connectors),
                       s.priority)


def _tasks_twice(n, m):
    # two independent tasks systems: a draw among two components, each of
    # m port groups, then a pick inside the drawn one
    a, b = _renamed(gen_tasks(n, m), "x"), _renamed(gen_tasks(n, m), "y")
    return SystemModel(f"tasks{n}x{m}_twice", a.atoms + b.atoms, a.connectors + b.connectors, a.priority)


def _bus_with_a_moved_trigger(n, k):
    # bus n with cluster k's bus connector changed: its first sender a
    # synchron, its last a trigger; every other cluster is a renamed copy
    # of the first, and cluster k differs from them only in that connector
    s = gen_bus(n)
    sends = [f"s{i}_{k}" for i in range(1, 5)]
    moved = Fusion((Factor(PortLeaf(sends[0])), *(Factor(PortLeaf(p), True) for p in sends[1:])))
    return SystemModel(f"{s.name}_moved{k}", s.atoms,
                       tuple(Connector(c.name, moved) if c.name == f"bus_{k}" else c for c in s.connectors),
                       s.priority)


CASES = {
    "tasks8x4": (lambda: gen_tasks(8, 4), 200),
    "bus16": (lambda: gen_bus(16), 500),
    "tasks8x2-pairs": (lambda: _tasks_pairs(8, 2), 400),
    "tasks3x2-twice": (lambda: _tasks_twice(3, 2), 400),
    "bus5-moved3": (lambda: _bus_with_a_moved_trigger(5, 3), 500),
}

# sha256 of the fired interactions, one line per step of sorted ports
PINNED = {
    ("tasks8x4", "enum", 1): "40e2804ad15616b4feac3f689b70a86667250c99ff492e73628a4b8d3e029c85",
    ("tasks8x4", "enum", 7): "bc8b4a0d4a6ee0e143769b0282dc65ae0ee4a19e502a7a71d1435705872a8ae4",
    ("tasks8x4", "sym", 1): "400e7b3913561f05d4176cbe99e54c24edbd3b149734e66ab59c58f408cbc1ab",
    ("tasks8x4", "sym", 7): "433ed419b5f89d8dbdb2497de8c66f857997e8ddbb4d1fcd0883a0aef2242246",
    ("bus16", "enum", 1): "dfd19a39ce49f5f987734274bf6829db33db6da31af527390a689804af92f22a",
    ("bus16", "enum", 7): "f2ddeac6455f283d48dc8fee61bd16109a61ffec527d2d0345b487d032800970",
    ("bus16", "sym", 1): "0a7bf33538c28022f713a9cb2874a740c142eca45db6169c1241f40e812d782e",
    ("bus16", "sym", 7): "e163be7ff17f5728fd6064491b8ad5c030777d9f884617ec8d867a0442e1ac3c",
    ("tasks8x2-pairs", "enum", 1): "b28bad4c26c4cff49c37bd668d9ec85f6e549c406ed0000440ac5d95902c9697",
    ("tasks8x2-pairs", "enum", 7): "70bb404b5de8d5924c3a72a19fd21ffc01774a4e4c3370fc1d44d3f3019579c8",
    ("tasks8x2-pairs", "sym", 1): "55624245514bb4403eacfd20fc00ff50337e087239f9901c7ebdc5c28ed9bb0b",
    ("tasks8x2-pairs", "sym", 7): "cd7a4e69d04a4be2ca7ea4a5dd31244305bbc8507bf705c69d174ce30025ae20",
    ("tasks3x2-twice", "enum", 1): "28bcee7cd5aa0f264b535d4a5927840ef114e82edefdb4a0ca490929592f8b19",
    ("tasks3x2-twice", "enum", 7): "e3539531707a828eac4380947a6b078dc779de80e43592acd6e40b0d58a5d0d8",
    ("tasks3x2-twice", "sym", 1): "b4dae2a859f67e4403bb41099762c754b51047f19b75eedab0aac5b5f5541e6a",
    ("tasks3x2-twice", "sym", 7): "0b64ecc137e254c39bf46cc3f4975d46b2332af40e12c4f0f18a4acfa7b20faf",
    ("bus5-moved3", "enum", 1): "dc6b3056d0f662807d83027328d7dbfb7f8563fa95b280350b9abcf9f23e5036",
    ("bus5-moved3", "enum", 7): "4d7ac1112cd237985cabacbe47319d02bcfc1e06e1c8d3d70cdab1bdfc5e91de",
    ("bus5-moved3", "sym", 1): "ea10941b8d5f08520afa08551df9449887e7ac807e9aeef0a87a3bfd2c34286e",
    ("bus5-moved3", "sym", 7): "432823e64ca98fe1ade1a0d021c90f3e077bbb5a2e863afce0767d7be7d14f92",
}


def trace_hash(engine, steps):
    trace = engine.run(steps)
    text = "\n".join(" ".join(sorted(a)) for a in trace.interactions)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_seed_traces_are_pinned(name):
    make, steps = CASES[name]
    system = make()
    for seed in (1, 7):
        for kind, engine in (("enum", EnumEngine(system, seed=seed)), ("sym", SymbolicEngine(system, seed=seed))):
            assert trace_hash(engine, steps) == PINNED[name, kind, seed], (name, kind, seed)
