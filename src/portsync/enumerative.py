"""Enumerative execution engine.

The interaction pool is materialized once at construction.  Every step
scans the entire pool for activity, applies the priority filter over
the active set, and picks one survivor uniformly with the engine's own
seeded generator.  The scan is deliberately linear in the pool size --
this engine is the baseline the symbolic one is measured against -- and
`activity_checks` counts the scans so tests can pin that cost down.

A state offers its atoms' outgoing labels; ports are disjoint, so a
label names its atom, and a pool member is active where the offered
labels are a superset of its shares.  A dominator in the pool is read
from the scan's active set, one outside it gets the same superset test;
`priority_checks` counts one probe per dominator of each active one.

The engine keeps one state and the labels it offers, and reads every
state as a change from it.  One method (`_offered`) moves the pair to
another state: it swaps out the labels of some atoms and swaps in their
new ones, which is exact because no two atoms share a label.
`survivors` passes the atoms whose state differs from the kept one, a
step the atoms it moved (`Engine._fire`), so at the state it fired to
the kept set is read as it is; a state `check` asks about, a reset or a
state set from outside costs one swap per atom that differs.  The scan
still tests every pool member.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Optional

from .connectors import Interaction, interaction_key
from .model import (
    Engine,
    GlobalState,
    SystemModel,
    ValidationError,
    _check_arity,
    _undeclared,
    validate,
)

_atom = itemgetter(0)  # of a move (`Engine._fire`): the moved atom's index


class EnumEngine(Engine):
    def __init__(self, system: SystemModel, seed: int = 0):
        diags = validate(system)
        if diags:
            raise ValidationError(diags)
        self.system = system
        self.seed = seed
        self.pool: tuple[Interaction, ...] = tuple(sorted(system.gamma, key=interaction_key))
        self.reset()
        # each atom's offered labels per state, and the kept state with the
        # union of its atoms' labels, a set no caller is handed
        self._labels = [atom.labels_from for atom in system.atoms]
        self._last = self.state
        self._offer = set().union(*map(dict.__getitem__, self._labels, self.state))
        # per pool interaction: the labels it needs offered (its shares), its
        # number of dominators, the pool indices of those in the pool and the
        # labels needed by those outside it
        shares, dominators, index = system.shares, system.dominators, {a: i for i, a in enumerate(self.pool)}
        self._needs, self._dominators = [], []
        for a in self.pool:
            self._needs.append(frozenset([label for _, label, _ in shares(a)]))
            doms = dominators.get(a)
            if doms is None:
                self._dominators.append((0, (), ()))
                continue
            inside = tuple(index[b] for b in doms if b in index)
            outside = tuple(frozenset([label for _, label, _ in shares(b)]) for b in doms if b not in index) if len(inside) < len(doms) else ()
            self._dominators.append((len(doms), inside, outside))

    def _offered(self, state: GlobalState, atoms: Optional[Iterable[int]] = None) -> set[Interaction]:
        """The labels `state` offers: the kept set, with the labels of each
        of `atoms` (by default each atom whose state differs from the kept
        state, after an arity check: ValueError) swapped out and its new
        ones in, all looked up before the set changes; `state` becomes the
        kept state.  ValueError on a control state its atom does not declare."""
        last, labels, offer = self._last, self._labels, self._offer
        if atoms is None:
            _check_arity(self.system, state)
            atoms = compress(range(len(state)), map(ne, last, state))
        try:
            swaps = [(labels[i][last[i]], labels[i][state[i]]) for i in atoms]
        except KeyError:  # the kept pair is untouched
            raise _undeclared(self.system, state) from None
        for old, new in swaps:
            offer -= old
            offer |= new
        self._last = state
        return offer

    def reset(self) -> None:
        super().reset()
        self.activity_checks = 0   # pool scans
        self.priority_checks = 0   # dominator activity probes

    def survivors(self, state: Optional[GlobalState] = None) -> list[Interaction]:
        """Active pool interactions not dominated by an active one, as a
        list in pool order.

        Tests every pool member against the state's offered labels: the
        kept set, updated to the state where it is not the kept one
        (`_offered`); there is no state-indexed shortcut.  A dominator in
        the pool is read from the scan's active set, one outside it is
        tested as a member is.  ValueError on a state of the wrong arity or
        one naming a control state its atom does not declare.
        """
        if state is None:
            state = self.state
        offered = self._offer if state is self._last else self._offered(state)
        needs, superset = self._needs, offered.issuperset
        self.activity_checks += len(needs)
        enabled = list(compress(range(len(needs)), map(superset, needs)))
        isdisjoint, pool, dominators = set(enabled).isdisjoint, self.pool, self._dominators
        out = []
        checks = 0
        for i in enabled:
            n, inside, outside = dominators[i]
            checks += n
            if isdisjoint(inside) and not (outside and any(map(superset, outside))):
                out.append(pool[i])
        self.priority_checks += checks
        return out

    def step(self) -> Optional[tuple[Interaction, GlobalState]]:
        """Fire one surviving interaction; None signals deadlock.  A survivor
        is enabled, so it fires without `model.step`'s check.  The kept
        labels, those of the state fired from once `survivors` has read it,
        become the state fired to's by the moved atoms' swaps (`_offered`)."""
        survivors = self.survivors()
        if not survivors:
            return None
        a = self._rng.choice(survivors)
        moves = self._fire(a)
        self._offered(self.state, map(_atom, moves))
        return a, self.state
