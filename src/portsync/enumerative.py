"""Enumerative execution engine.

The interaction pool is materialized once at construction.  Every step
scans the entire pool for activity, applies the priority filter over
the active set, and picks one survivor uniformly with the engine's own
seeded generator.  The scan is deliberately linear in the pool size --
this engine is the baseline the symbolic one is measured against -- and
`activity_checks` counts the scans so tests can pin that cost down.

The filter reads a dominator that belongs to the pool from the scan's
active set; only a dominator outside the pool, which explicit pairs can
list, is probed through its participation plan.  `priority_checks`
still counts one probe per dominator of each active interaction.
"""

from __future__ import annotations

from typing import Optional

from .connectors import Interaction
from .model import (
    Engine,
    GlobalState,
    SystemModel,
    ValidationError,
    _advance,
    _moves,
    sorted_interactions,
    validate,
)


class EnumEngine(Engine):
    def __init__(self, system: SystemModel, seed: int = 0):
        diags = validate(system)
        if diags:
            raise ValidationError(diags)
        self.system = system
        self.seed = seed
        self.pool: tuple[Interaction, ...] = sorted_interactions(system.gamma)
        self._index = {a: i for i, a in enumerate(self.pool)}
        self.reset()
        self._labels = [atom.labels_from for atom in system.atoms]
        # participation plans: which atom must take which exact label
        self._plans = [system.shares(a) for a in self.pool]
        # per pool interaction: its number of dominators, the pool indices
        # of those in the pool and the plans of those outside it
        dominators, index = system.dominators, self._index
        self._dominators = []
        for a in self.pool:
            doms = dominators.get(a)
            if doms is None:
                self._dominators.append((0, (), ()))
                continue
            inside = tuple(index[b] for b in doms if b in index)
            outside = tuple(system.shares(b) for b in doms if b not in index) if len(inside) < len(doms) else ()
            self._dominators.append((len(doms), inside, outside))

    def _active(self, plan: tuple[tuple[int, Interaction], ...], state: GlobalState) -> bool:
        labels = self._labels
        return all(label in labels[i][state[i]] for i, label in plan)

    def reset(self) -> None:
        super().reset()
        self.activity_checks = 0   # pool scans
        self.priority_checks = 0   # dominator activity probes

    def survivors(self, state: Optional[GlobalState] = None) -> frozenset[Interaction]:
        """Active pool interactions not dominated by an active one.

        Scans the whole pool; there is no state-indexed shortcut.  A
        dominator in the pool is read from the scan's active set, one
        outside it is probed through its plan; `priority_checks` counts
        every dominator of each active interaction either way.
        ValueError on a state of the wrong arity.
        """
        if state is None:
            st = self.state
        elif len(state) != len(self._labels):
            raise ValueError("state arity does not match the number of atoms")
        else:
            st = state
        active = self._active
        self.activity_checks += len(self.pool)
        enabled = [i for i, plan in enumerate(self._plans) if active(plan, st)]
        isdisjoint, pool, dominators = set(enabled).isdisjoint, self.pool, self._dominators
        out = []
        checks = 0
        for i in enabled:
            n, inside, outside = dominators[i]
            checks += n
            if isdisjoint(inside) and not (outside and any(active(p, st) for p in outside)):
                out.append(pool[i])
        self.priority_checks += checks
        return frozenset(out)

    def step(self) -> Optional[tuple[Interaction, GlobalState]]:
        """Fire one surviving interaction; None signals deadlock.  A survivor
        is enabled, so it fires without `model.step`'s check."""
        survivors = sorted(self.survivors(), key=self._index.__getitem__)  # in pool order
        if not survivors:
            return None
        a = self._rng.choice(survivors)
        self.state = _advance(self.state, _moves(self.system, self.state, a), self._rng)
        self.steps_taken += 1
        return a, self.state
