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
    ("tasks8x4", "sym", 1): "ebc71f1ebbfc8d8cea5199e19fd758e02f0de6e1ea9ff21f161af071f82f4eeb",
    ("tasks8x4", "sym", 7): "aa287f0e363cdd9e029c806aed67f6968b80512d137ab3343ee100fa5fbed981",
    ("bus16", "enum", 1): "dfd19a39ce49f5f987734274bf6829db33db6da31af527390a689804af92f22a",
    ("bus16", "enum", 7): "f2ddeac6455f283d48dc8fee61bd16109a61ffec527d2d0345b487d032800970",
    ("bus16", "sym", 1): "ad9589a624e2f18cdf233fa5ffbdb3f5c908e8173150db0d1222cb6a4c90a892",
    ("bus16", "sym", 7): "3a79140ce3647a0cfc8b4d24e460d7bede326a2544ccda0b696658ca53fedd51",
    ("tasks8x2-pairs", "enum", 1): "b28bad4c26c4cff49c37bd668d9ec85f6e549c406ed0000440ac5d95902c9697",
    ("tasks8x2-pairs", "enum", 7): "70bb404b5de8d5924c3a72a19fd21ffc01774a4e4c3370fc1d44d3f3019579c8",
    ("tasks8x2-pairs", "sym", 1): "6c333e8fb0fa7221ce6b7d4fd783a0baa5b61500048e2c375274a8a7a276539d",
    ("tasks8x2-pairs", "sym", 7): "94fa85dd56861ec72124917f7630f8620dbe6e12a83b8e236e10dcaa2e0c1ed3",
    ("tasks3x2-twice", "enum", 1): "28bcee7cd5aa0f264b535d4a5927840ef114e82edefdb4a0ca490929592f8b19",
    ("tasks3x2-twice", "enum", 7): "e3539531707a828eac4380947a6b078dc779de80e43592acd6e40b0d58a5d0d8",
    ("tasks3x2-twice", "sym", 1): "5c7a117840624cb6c3aa0dde40ec500e5ee8a93280123cac3bf436bbedea39d7",
    ("tasks3x2-twice", "sym", 7): "81266ad2b9778d7a847192b596647c3adbbb266b3c72c0642c74a0d3e79503dc",
    ("bus5-moved3", "enum", 1): "dc6b3056d0f662807d83027328d7dbfb7f8563fa95b280350b9abcf9f23e5036",
    ("bus5-moved3", "enum", 7): "4d7ac1112cd237985cabacbe47319d02bcfc1e06e1c8d3d70cdab1bdfc5e91de",
    ("bus5-moved3", "sym", 1): "a34557c0d1a746b2c8604f507c233dfae998059a0049adfdd5a36a3317025584",
    ("bus5-moved3", "sym", 7): "6e640eca2acfe52fa83238046a9b8cf16b933118cbd2a97da2ead7f1fe3233a6",
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
