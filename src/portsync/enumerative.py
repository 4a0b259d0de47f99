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

The engine keeps the offered labels of the state its last step fired
to: a step swaps each moved atom's labels out and its new state's in,
which is exact because no two atoms share a label.  Any other state (a
reset, a state set from outside, a state `check` asks about) gets the
union built afresh.  Either way the scan still tests every pool member.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional

from .connectors import Interaction, interaction_key
from .model import (
    Engine,
    GlobalState,
    SystemModel,
    ValidationError,
    _check_arity,
    validate,
)


class EnumEngine(Engine):
    def __init__(self, system: SystemModel, seed: int = 0):
        diags = validate(system)
        if diags:
            raise ValidationError(diags)
        self.system = system
        self.seed = seed
        self.pool: tuple[Interaction, ...] = tuple(sorted(system.gamma, key=interaction_key))
        self.reset()
        # each atom's offered labels per state; `step` keeps their union at
        # the state it fired to as `_offer`
        self._labels = [atom.labels_from for atom in system.atoms]
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

    def _offered(self, state: GlobalState) -> set[Interaction]:
        return set().union(*map(dict.__getitem__, self._labels, state))

    def reset(self) -> None:
        super().reset()
        self.activity_checks = 0   # pool scans
        self.priority_checks = 0   # dominator activity probes

    def survivors(self, state: Optional[GlobalState] = None) -> list[Interaction]:
        """Active pool interactions not dominated by an active one, as a
        list in pool order.

        Tests every pool member against the state's offered labels: the
        set kept across steps at the state our last step fired to, else
        their union built afresh; there is no state-indexed shortcut.  A
        dominator in the pool is read from the scan's active set, one
        outside it is tested as a member is.  ValueError on a state of the
        wrong arity.
        """
        if state is None:
            state = self.state
        if state is self._fired_to:
            offered = self._offer
        else:
            _check_arity(self.system, state)
            offered = self._offered(state)
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
        is enabled, so it fires without `model.step`'s check.  The offered
        labels of the state fired to are kept: those of the state fired
        from (kept, else built afresh) with the moved atoms' swapped."""
        state = self.state
        survivors = self.survivors()
        if not survivors:
            return None
        offer = self._offer if state is self._fired_to else self._offered(state)
        a = self._rng.choice(survivors)
        moves = self._fire(a)
        labels, new = self._labels, self.state
        for i, _ in moves:
            offer -= labels[i][state[i]]
            offer |= labels[i][new[i]]
        self._offer = offer
        return a, self.state
