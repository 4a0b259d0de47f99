"""A component's one packed read of its groups' class keys."""

import operator

from portsync.generators import gen_bus, gen_tasks, random_system
from portsync.model import reachable
from portsync.symbolic import build

from oracles import key_of, pairs_written_out
from test_traces import _tasks_twice


def test_each_field_is_its_groups_own_key():
    # at every reachable state up to the bound, each group's field of its
    # component's packed sum (the key `entries` reads its class table at)
    # is the sum of its own codes, which lies below its field's width: no
    # field carries into the next
    named = {"tasks8x4": gen_tasks(8, 4), "tasks8x2-pairs": pairs_written_out(gen_tasks(8, 2)),
             "bus16": gen_bus(16), "tasks3x2-twice": _tasks_twice(3, 2), "tasks16x4": gen_tasks(16, 4)}
    comps = {}
    for name, sysm in [*named.items(), *((s, random_system(s)) for s in range(120))]:
        enc = build(sysm)
        for state in reachable(sysm, bound=300).states:
            for c in enc.components:
                keys = [key_of(g, state) for g in c.groups]
                assert all(k >> g.key_bits == 0 for g, k in zip(c.groups, keys))
                assert all(map(operator.is_, c.entries(state), (g.cls.table[k] for g, k in zip(c.groups, keys))))
        comps[name] = enc.components
    # the inputs cover what they are named for: groups with orbits, a
    # component of one group, two components and a sum over 64 bits
    widths = {name: [sum(g.key_bits for g in c.groups) for c in cs] for name, cs in comps.items()}
    (tasks,) = comps["tasks8x4"]
    assert len(tasks.groups) == 4 and all(g.orient for g in tasks.groups)
    assert len(comps["bus16"]) == 16 and all(len(c.groups) == 1 for c in comps["bus16"])
    assert len(comps["tasks3x2-twice"]) == 2
    assert widths["tasks8x4"] == [60] and widths["tasks16x4"] == [72]
