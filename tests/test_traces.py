"""Same-seed traces of both engines, pinned as hashes.

A change that keeps the semantics and the pick keeps every hash; one that
changes the traces on purpose updates them and says so.  The hashes do
not depend on PYTHONHASHSEED.
"""

import hashlib

import pytest

from portsync.enumerative import EnumEngine
from portsync.generators import gen_bus, gen_tasks
from portsync.model import ExplicitPairs, SystemModel, effective_pairs
from portsync.symbolic import SymbolicEngine


def _tasks_pairs(n, m):
    s = gen_tasks(n, m)
    return SystemModel(s.name, s.atoms, s.connectors, ExplicitPairs(effective_pairs(s.priority, s.gamma)))


CASES = {
    "tasks8x4": (lambda: gen_tasks(8, 4), 200),
    "bus16": (lambda: gen_bus(16), 500),
    "tasks8x2-pairs": (lambda: _tasks_pairs(8, 2), 400),
}

# sha256 of the fired interactions, one line per step of sorted ports
PINNED = {
    ("tasks8x4", "enum", 1): "40e2804ad15616b4feac3f689b70a86667250c99ff492e73628a4b8d3e029c85",
    ("tasks8x4", "enum", 7): "bc8b4a0d4a6ee0e143769b0282dc65ae0ee4a19e502a7a71d1435705872a8ae4",
    ("tasks8x4", "sym", 1): "a7cd59e050bddfce7a18a7f880f754363ec096b8be2f83b72c81790cb22215d4",
    ("tasks8x4", "sym", 7): "31c8da153e81d5da2d53998b6630f8b4a4a3e973337e22b62ba9cb7b55245e2b",
    ("bus16", "enum", 1): "dfd19a39ce49f5f987734274bf6829db33db6da31af527390a689804af92f22a",
    ("bus16", "enum", 7): "f2ddeac6455f283d48dc8fee61bd16109a61ffec527d2d0345b487d032800970",
    ("bus16", "sym", 1): "aa7a6043a7e154cac9df647075fc4cc1c65b7d68968d6b5ca5a058a982b9ba01",
    ("bus16", "sym", 7): "f3322a4ec2265c5605e5cb0a569eec3a6a3646531f44c4e296fe53fdec31e1b0",
    ("tasks8x2-pairs", "enum", 1): "b28bad4c26c4cff49c37bd668d9ec85f6e549c406ed0000440ac5d95902c9697",
    ("tasks8x2-pairs", "enum", 7): "70bb404b5de8d5924c3a72a19fd21ffc01774a4e4c3370fc1d44d3f3019579c8",
    ("tasks8x2-pairs", "sym", 1): "90dfa4e0a40a2ebf5210d4a432948e0818fcdbc420bc0e42a120230513aa5ed2",
    ("tasks8x2-pairs", "sym", 7): "a25d396b5d77b28302306a5c6d61a9872bedeacd47382fadf21b2cd9717285e1",
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
