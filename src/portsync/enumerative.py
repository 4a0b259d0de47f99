"""Enumerative execution engine.

The interaction pool is materialized once at construction.  Every step
scans the entire pool for activity, applies the priority filter over
the active set, and picks one survivor uniformly with the engine's own
seeded generator.  The scan is deliberately linear in the pool size --
this engine is the baseline the symbolic one is measured against -- and
`activity_checks` counts the scans so tests can pin that cost down.
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
        dominators = system.dominators
        self._dominators = {a: tuple(map(system.shares, dominators.get(a, ()))) for a in self.pool}

    def _active(self, plan: tuple[tuple[int, Interaction], ...], state: GlobalState) -> bool:
        labels = self._labels
        return all(label in labels[i][state[i]] for i, label in plan)

    def reset(self) -> None:
        super().reset()
        self.activity_checks = 0   # pool scans
        self.priority_checks = 0   # dominator activity probes

    def survivors(self, state: Optional[GlobalState] = None) -> frozenset[Interaction]:
        """Active pool interactions not dominated by an active one.

        Scans the whole pool; there is no state-indexed shortcut.
        """
        st = self.state if state is None else state
        active = self._active
        enabled: list[Interaction] = []
        self.activity_checks += len(self.pool)
        for a, plan in zip(self.pool, self._plans):
            if active(plan, st):
                enabled.append(a)
        out = []
        for a in enabled:
            doms = self._dominators[a]
            self.priority_checks += len(doms)
            if not any(active(p, st) for p in doms):
                out.append(a)
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
