"""Both engines read a state as a change from the last state they read:
`EnumEngine.survivors` swaps the offered labels of the atoms that differ,
`SystemEncoding.read` re-reads the components that own them.  After
firing, the enumerative step swaps the labels of the atoms it moved and
the symbolic step re-reads the drawn component.  Reads in any order,
interleaved with steps, must give what a read from scratch gives."""

import random

import pytest

from portsync.enumerative import EnumEngine
from portsync.equivalence import check_equivalence
from portsync.generators import gen_bus, gen_tasks, modulo8, random_system
from portsync.model import ExplicitPairs, reachable, survivors
from portsync.symbolic import SymbolicEngine, build

from oracles import (cell_system, components, hub_system, pairs_written_out, ports_of, reference_enum_survivors,
                     with_outside_dominator)
from test_symbolic import _with_portless_atom
from test_traces import _tasks_twice


def _corpus():
    families = [modulo8(), gen_bus(3), gen_bus(16), gen_tasks(3, 2), gen_tasks(8, 4), _tasks_twice(3, 2),
                pairs_written_out(gen_tasks(3, 2)), *map(hub_system, range(20))]
    outside = [s for s, _ in filter(None, map(with_outside_dominator, range(200)))]
    return [*families, *outside, *map(random_system, range(120)), *map(cell_system, range(120))]


def _full_union(sysm, state):
    return set().union(*(atom.labels_from[q] for atom, q in zip(sysm.atoms, state)))


def test_reads_in_any_order_equal_the_reference():
    # each system's reachable states, shuffled, with repeats, interleaved
    # with steps, resets and states set from outside: at every read both
    # engines' survivors equal the model's, and each enumerative read adds
    # to the counters what the reference scan and probes add
    several = 0
    for n, sysm in enumerate(_corpus()):
        rng = random.Random(n)
        states = sorted(reachable(sysm, bound=60).states)
        reads = states + rng.choices(states, k=len(states) // 2 + 1)
        rng.shuffle(reads)
        eng, enc = EnumEngine(sysm, seed=n), build(sysm)
        labels = {atom.name: {q: frozenset(v) for q, v in atom.labels_from.items()} for atom in sysm.atoms}
        held = []  # every list the engine handed out, with a copy of it
        several += len(enc.components) > 1

        def read(state=None):
            at = eng.state if state is None else state
            checks = eng.activity_checks, eng.priority_checks
            got = eng.survivors(state)
            want, scans, probes = reference_enum_survivors(sysm, at)
            assert frozenset(got) == want == survivors(sysm, at) == enc.survivors(at), (sysm.name, at)
            assert (eng.activity_checks - checks[0], eng.priority_checks - checks[1]) == (scans, probes)
            assert eng._last is at and eng._offer == _full_union(sysm, at)
            held.append((got, list(got)))

        for state in reads:
            roll = rng.random()
            if roll < 0.15:
                eng.reset()
            elif roll < 0.3:
                eng.state = tuple(list(state))  # equal to a read state, but another object
            elif roll < 0.5:
                before = eng.state
                want, scans, probes = reference_enum_survivors(sysm, before)
                checks = eng.activity_checks, eng.priority_checks
                result = eng.step()
                assert (eng.activity_checks - checks[0], eng.priority_checks - checks[1]) == (scans, probes)
                assert (result is None) == (not want) and (result is None or result[0] in want)
                read()
            read(state)
            if rng.random() < 0.3:
                read(state)  # the kept state itself
        # the kept set is the engine's own: no list handed out and no
        # atom's labels changed under the reads
        assert type(eng._offer) is set and all(got == copy for got, copy in held)
        assert all(eng._offer is not got for got, _ in held)
        assert labels == {atom.name: dict(atom.labels_from) for atom in sysm.atoms}
    assert several >= 20


@pytest.mark.parametrize("sysm", [gen_bus(3), _tasks_twice(3, 2), random_system(5), cell_system(7)],
                         ids=["bus3", "tasks3x2-twice", "random5", "cell7"])
def test_a_bad_state_after_a_kept_read_changes_no_kept_read(sysm):
    # a state of the wrong arity raises before it is compared with the
    # kept one (a pairwise compare would stop at the shorter state), and a
    # state holding an unknown control state raises ValueError naming the
    # atom and the state: the reads that follow still equal the reference
    eng, enc = EnumEngine(sysm), build(sysm)
    states = sorted(reachable(sysm, bound=30).states)
    first, last = states[0], states[-1]
    assert frozenset(eng.survivors(first)) == enc.survivors(first) == survivors(sysm, first)
    for bad in (first[:-1], first + first[:1], ()):
        with pytest.raises(ValueError):
            eng.survivors(bad)
        with pytest.raises(ValueError):
            enc.survivors(bad)
    unknown = (*last[:-1], "no such state")
    for engine_read in (eng.survivors, enc.survivors):
        with pytest.raises(ValueError, match=f"atom {sysm.atoms[-1].name} declares no state 'no such state'"):
            engine_read(unknown)
    for state in (first, last, first):
        assert frozenset(eng.survivors(state)) == enc.survivors(state) == survivors(sysm, state)
        assert eng._offer == _full_union(sysm, state)


@pytest.mark.parametrize("sysm", [gen_bus(3), pairs_written_out(gen_tasks(3, 2)), random_system(5), cell_system(7),
                                  _with_portless_atom(gen_bus(2))], ids=["bus3", "tasks3x2-pairs", "random5", "cell7",
                                                                         "bus2-portless"])
def test_an_undeclared_state_set_from_outside_raises_value_error(sysm):
    # a state set from outside that names a control state its atom does not
    # declare, at each atom in turn, an atom that owns no port too: each
    # engine's step raises ValueError naming the atom and the state, and its
    # next step and reads at valid states equal a fresh engine's
    states = sorted(reachable(sysm, bound=30).states)
    for engine in (EnumEngine, SymbolicEngine):
        eng = engine(sysm, seed=1)
        eng.run(5)
        for i, atom in enumerate(sysm.atoms):
            eng.state = (*states[-1][:i], "nowhere", *states[-1][i + 1:])
            with pytest.raises(ValueError, match=f"^atom {atom.name} declares no state 'nowhere'$"):
                eng.step()
        for k, state in enumerate(states):
            fresh = engine(sysm, seed=k)
            eng.reset()
            eng._rng, eng.state, fresh.state = random.Random(k), state, state
            assert eng.step() == fresh.step(), (engine.__name__, state)
        read, fresh_read = ((eng.survivors, EnumEngine(sysm).survivors) if engine is EnumEngine
                            else (eng.encoding.survivors, build(sysm).survivors))
        for state in reversed(states):
            assert frozenset(read(state)) == frozenset(fresh_read(state)) == survivors(sysm, state)


def test_component_reads_follow_the_moved_atoms():
    # bus16's clusters are 16 components; a state that differs from the
    # last one read in one cluster re-lists that cluster alone
    sysm = gen_bus(16)
    enc = build(sysm)
    reads = []
    for c in enc.components:
        real = c.survivors
        c.survivors = lambda *read, real=real, c=c: reads.append(c) or real(*read)
    init = sysm.initial_state()
    enc.survivors(init)
    assert len(reads) == 16
    reads.clear()
    moved = ("B", *init[1:])
    assert enc.survivors(moved) == survivors(sysm, moved)
    assert reads == [enc.components[0]]
    reads.clear()
    assert enc.survivors(moved) == survivors(sysm, moved) and reads == []


def _assert_kept_read_is_fresh(enc):
    """The encoding's kept read equals a fresh read of every component at
    its state: the same packed sums and entry objects, each count the sum
    of its entries' counts, and each listed component's survivors the
    model's on its ports.  Before the first read there is none."""
    state = enc._last
    if state is None:
        return
    want = survivors(enc.system, state)
    for c, (packed, es), n, listed in zip(enc.components, enc._reads, enc._counts, enc._lists):
        fresh, fresh_es = c.entries(state)
        assert packed == fresh and list(map(id, es)) == list(map(id, fresh_es)), state
        assert n == sum(e[1] for e in es), state
        if listed is not None:
            ours = frozenset(ports_of(c))
            assert sorted(map(sorted, listed)) == sorted(sorted(a) for a in want if a <= ours), state


def _several_components(systems, k):
    """The first k of `systems` with two components or more and more than
    two states within 10 steps."""
    return [s for s in systems if len(components(s)) > 1 and len(reachable(s, bound=10).states) > 2][:k]


def test_the_step_and_survivors_share_one_kept_read():
    # one engine's steps interleave with its encoding's survivors at
    # shuffled reachable states, with `check` on that encoding, with resets
    # and with states set from outside: after every call the kept read is
    # a fresh read at its state, after a step at the state fired to, and
    # the engine fires what a fresh engine with the same seed fires, given
    # the same resets and states
    systems = [gen_bus(3), gen_bus(16), gen_tasks(3, 2),
               *_several_components(map(random_system, range(400)), 4),
               *_several_components(map(cell_system, range(120)), 4)]
    assert len(systems) == 11
    steps = 0
    for n, sysm in enumerate(systems):
        rng = random.Random(n)
        eng, twin = SymbolicEngine(sysm, seed=n), SymbolicEngine(sysm, seed=n)
        enc = eng.encoding
        states = sorted(reachable(sysm, bound=60).states)
        for _ in range(300):
            roll = rng.random()
            if roll < 0.05:
                eng.reset()
                twin.reset()
            elif roll < 0.1:
                eng.state = twin.state = rng.choice(states)
            elif roll < 0.3:
                enc.survivors(rng.choice(states))
            elif roll < 0.4:
                enc.survivors(tuple(list(eng.state)))  # the engine's state, as another object
            elif roll < 0.42:
                assert check_equivalence(sysm, bound=rng.randint(1, 60), encoding=enc).equivalent
            else:
                result = eng.step()
                assert result == twin.step()
                steps += result is not None
                if result is not None:
                    assert enc._last is eng.state
            _assert_kept_read_is_fresh(enc)
    assert steps > 1500


def test_kept_counts_equal_the_survivors_at_every_checked_state():
    # at every state of `check`'s walk, each component's kept count, the
    # sum its step draws from, is the number of the model's survivors on
    # its ports
    systems = [modulo8(), gen_bus(3), gen_bus(16), gen_tasks(3, 2), gen_tasks(8, 4), _tasks_twice(3, 2),
               pairs_written_out(gen_tasks(3, 2)), *map(random_system, range(120)), *map(cell_system, range(120))]
    for sysm in systems:
        enc = build(sysm)
        ports = [frozenset(ports_of(c)) for c in enc.components]
        read = enc.survivors

        def counted(state):
            out = read(state)
            want = survivors(sysm, state)
            assert enc._counts == [sum(a <= ours for a in want) for ours in ports], (sysm.name, state)
            return out

        enc.survivors = counted
        assert check_equivalence(sysm, bound=2000, encoding=enc).equivalent


def test_each_group_is_indexed_as_a_full_scan_finds_it():
    # a group's sub-system holds the atoms owning its ports, the connectors
    # on its ports in system order and the closure pairs on its ports, as
    # a scan of every atom, connector and pair finds them
    pairs = 0
    for sysm in _corpus():
        closure = sysm.priority.closure if isinstance(sysm.priority, ExplicitPairs) else None
        for c in build(sysm).components:
            for g in c.groups:
                ours = frozenset(g.system.all_ports)
                assert [a.name for a in g.system.atoms] == [a.name for a in sysm.atoms if a.port_set & ours]
                assert g.system.connectors == tuple(x for x in sysm.connectors if x.port_set & ours)
                if closure is None:
                    assert type(g.system.priority) is type(sysm.priority)
                else:
                    assert g.system.priority.pairs == frozenset(ab for ab in closure if (ab[0] | ab[1]) & ours)
                    pairs += bool(g.system.priority.pairs)
    assert pairs >= 50
