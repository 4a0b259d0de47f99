"""Differential check: enumerative vs symbolic survivor sets.

Walks the reachable state space (`model.walk`, a bounded BFS) and
compares, at every visited state, the survivor set computed by the
enumerative engine with the one read off the symbolic encoding, when
the walk calls `expand`; the successors are built lazily, so none is
built past the bound.  Exploration follows the enumerative set, plus on
a divergence every symbolic survivor that is an enabled pool
interaction, so a divergence in either direction is still expanded.
It fires in a fixed order, so a truncated walk visits the same states
in every process: the enumerative survivors in pool order, then the
symbolic extras by `interaction_key`, each one's successors sorted.

An explicitly supplied encoding is compared as-is; that is the hook for
the corrupted-encoding negative control in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .connectors import Interaction, interaction_key
from .enumerative import EnumEngine
from .model import GlobalState, SystemModel, _moves, _outcomes, act, walk
from .symbolic import SystemEncoding, build


@dataclass(frozen=True)
class Divergence:
    state: GlobalState
    enum_survivors: frozenset[Interaction]
    symbolic_survivors: frozenset[Interaction]


@dataclass
class EquivalenceReport:
    states_checked: int
    truncated: bool
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.equivalent:
            extra = " (truncated)" if self.truncated else ""
            return f"equivalent, {self.states_checked} states{extra}"
        d = self.divergences[0]
        return (
            f"divergence at state {d.state}: "
            f"enumerative {sorted(sorted(a) for a in d.enum_survivors)} vs "
            f"symbolic {sorted(sorted(a) for a in d.symbolic_survivors)} "
            f"({len(self.divergences)} diverging states of {self.states_checked})"
        )


def successors(system: SystemModel, state: GlobalState, a: Interaction) -> frozenset[GlobalState]:
    """`model.successors` without its checks: the walk's states have the
    system's arity, and each interaction it fires is enabled (an
    enumerative survivor, or a symbolic one in the pool and active)."""
    return _outcomes(state, _moves(system, state, a))


def check_equivalence(
    system: SystemModel,
    bound: int = 10000,
    encoding: Optional[SystemEncoding] = None,
) -> EquivalenceReport:
    enum_engine = EnumEngine(system)
    enc = encoding if encoding is not None else build(system)
    report = EquivalenceReport(states_checked=0, truncated=False)

    def expand(state: GlobalState) -> Iterable[GlobalState]:
        report.states_checked += 1
        fire = enum_engine.survivors(state)
        from_enum, from_symbolic = frozenset(fire), enc.survivors(state)
        if from_enum != from_symbolic:
            report.divergences.append(Divergence(state, from_enum, from_symbolic))
            # the pool never holds the empty interaction
            fire += sorted((a for a in from_symbolic - from_enum if a in system.gamma and act(system, state, a)),
                           key=interaction_key)
        return (t for a in fire for t in sorted(successors(system, state, a)))

    report.truncated = walk(system, bound, expand).truncated
    return report
