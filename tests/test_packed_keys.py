"""A component's one packed read of its groups' class keys."""

import operator

from portsync.equivalence import check_equivalence
from portsync.generators import gen_bus, gen_tasks, random_system
from portsync.model import reachable
from portsync.symbolic import build

from oracles import cell_system, key_of, oracle_orient, pairs_written_out, port_groups_of
from test_traces import _tasks_twice


def test_each_field_is_its_groups_own_key():
    # at every reachable state up to the bound, each group's field of its
    # component's packed sum (the key `Component.read` reads its class
    # table at)
    # is the sum of its own codes, which lies below its field's width: no
    # field carries into the next
    named = {"tasks8x4": gen_tasks(8, 4), "tasks8x2-pairs": pairs_written_out(gen_tasks(8, 2)),
             "bus16": gen_bus(16), "tasks3x2-twice": _tasks_twice(3, 2), "tasks16x4": gen_tasks(16, 4)}
    comps = {}
    for name, sysm in [*named.items(), *((s, random_system(s)) for s in range(120))]:
        enc = build(sysm)
        for state in reachable(sysm, bound=300).states:
            enc.read(state)
            for c in enc.components:
                keys = [key_of(g, state) for g in c.groups]
                assert all(k >> g.key_bits == 0 for g, k in zip(c.groups, keys))
                assert all(map(operator.is_, c.entries, (g.cls.table[k] for g, k in zip(c.groups, keys))))
        comps[name] = enc.components
    # the inputs cover what they are named for: groups with orbits, a
    # component of one group, two components and a sum over 64 bits
    widths = {name: [sum(g.key_bits for g in c.groups) for c in cs] for name, cs in comps.items()}
    (tasks,) = comps["tasks8x4"]
    assert len(tasks.groups) == 4 and all(g.cls.orbits for g in tasks.groups)
    assert len(comps["bus16"]) == 16 and all(len(c.groups) == 1 for c in comps["bus16"])
    assert len(comps["tasks3x2-twice"]) == 2
    assert widths["tasks8x4"] == [60] and widths["tasks16x4"] == [72]


def test_occupancy_reads_each_orbit_place_as_a_stable_sort_does():
    # at every state of `check`'s walk, each place of each model that
    # `Component.survivors` lists for a group whose class has orbits reads
    # the port of the owner that a stable sort of each orbit by value puts
    # at its canonical position (`oracle_orient`); every entry's reads put
    # each orbit position's t below the orbit's size, and t reaches n - 1
    # where all n owners of an orbit hold one value (the tasks' initial
    # state)
    named = [gen_tasks(3, 2), pairs_written_out(gen_tasks(8, 2))]
    cases = [(s, 10000) for s in named] + [(gen_tasks(8, 4), 500)] + [(cell_system(s), 2000) for s in range(120)]
    orbit_groups, several, top = 0, 0, set()
    for sysm, bound in cases:
        enc = build(sysm)
        survivors = enc.survivors

        def checked(state):
            out = survivors(state)
            for c in enc.components:  # read at `state` by `survivors`
                packed, entries = c.packed, c.entries
                for k, (g, e) in enumerate(zip(c.groups, entries)):
                    if not g.cls.orbits:
                        continue
                    perm, occupancy = oracle_orient(g, state), packed >> c._occupancy[k]
                    for model in e[3]:
                        for at, i in model:
                            assert g.read(occupancy, e[2], [(at, i)]) == {g.system.atoms[perm[at]].ports[i]}
                    top.update((len(o), max(e[2][at][1] for at in o)) for o in g.cls.orbits)
            return out

        enc.survivors = checked
        assert check_equivalence(sysm, bound, encoding=enc).equivalent
        groups = [g for g in port_groups_of(enc) if g.cls.orbits]
        orbit_groups += len(groups)
        several += sum(len(g.cls.orbits) > 1 for g in groups)
    # the named systems' 8 groups have one orbit each; cell_system 0-119
    # adds 53, 8 of them with two orbits or more
    assert (orbit_groups, several) == (8 + 53, 8)
    assert all(t < n for n, t in top) and (8, 7) in top
    # all eight tasks idle: one row holds every owner, read in order
    enc = build(gen_tasks(8, 4))
    (c,) = enc.components
    enc.read(gen_tasks(8, 4).initial_state())
    packed, entries = c.packed, c.entries
    for k, (g, e) in enumerate(zip(c.groups, entries)):
        ((first, _),) = {e[2][at] for at in g.cls.orbits[0][:1]}
        assert [e[2][at] for at in g.cls.orbits[0]] == [(first, t) for t in range(8)]
        assert [min(g.read(packed >> c._occupancy[k], e[2], [(at, 0)])) for at in range(9)] == \
            [a.ports[0] for a in g.system.atoms]
