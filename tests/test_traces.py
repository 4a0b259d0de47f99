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
    ("tasks8x4", "sym", 1): "416ee3792f97658988bddf65cbbc16f67c995fa1a036dc87ece9c7c6a91ee5b7",
    ("tasks8x4", "sym", 7): "2376d293b398eb82d6d021f15e2fb014aa78b5d06fb21dc3eab673ff90f10d6f",
    ("bus16", "enum", 1): "dfd19a39ce49f5f987734274bf6829db33db6da31af527390a689804af92f22a",
    ("bus16", "enum", 7): "f2ddeac6455f283d48dc8fee61bd16109a61ffec527d2d0345b487d032800970",
    ("bus16", "sym", 1): "bdf177e306f0ad159597a3466765512b59bab7242dbbe707a50015bfbdd3f041",
    ("bus16", "sym", 7): "46c142edce8d1be7f2b27f63525cddb26315a26bf817a4e123ca8daa0e242a5e",
    ("tasks8x2-pairs", "enum", 1): "b28bad4c26c4cff49c37bd668d9ec85f6e549c406ed0000440ac5d95902c9697",
    ("tasks8x2-pairs", "enum", 7): "70bb404b5de8d5924c3a72a19fd21ffc01774a4e4c3370fc1d44d3f3019579c8",
    ("tasks8x2-pairs", "sym", 1): "f8143c970bf84b7c5487a823b72cb1fe410d46da4d9d25287d2465ac03dee66a",
    ("tasks8x2-pairs", "sym", 7): "45411130bb3d067bff58a338f5d97ae477919562dd51ba496af694e9123c4206",
    ("tasks3x2-twice", "enum", 1): "28bcee7cd5aa0f264b535d4a5927840ef114e82edefdb4a0ca490929592f8b19",
    ("tasks3x2-twice", "enum", 7): "e3539531707a828eac4380947a6b078dc779de80e43592acd6e40b0d58a5d0d8",
    ("tasks3x2-twice", "sym", 1): "e33513ee8114c8a57971ff0991cbbe751b82e11a2a2a5c22c65a7526b17e65e5",
    ("tasks3x2-twice", "sym", 7): "996816be4e3f083b58114508af796e94dca7895366effacad37761c42ec03d13",
    ("bus5-moved3", "enum", 1): "dc6b3056d0f662807d83027328d7dbfb7f8563fa95b280350b9abcf9f23e5036",
    ("bus5-moved3", "enum", 7): "4d7ac1112cd237985cabacbe47319d02bcfc1e06e1c8d3d70cdab1bdfc5e91de",
    ("bus5-moved3", "sym", 1): "cc5586b168f4e586fcd6cb3966e28f24a722682c3867f56dabff23f328485f2e",
    ("bus5-moved3", "sym", 7): "aa2ae6ffcabc19cc12db5c62eb44834066c4de2e59d24b158beab0bdba3497bb",
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
