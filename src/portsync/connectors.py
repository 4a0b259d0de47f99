"""Connector algebra: typed fusion terms over ports.

A connector is a term built from port leaves and fusions of factors.
Each factor is either a trigger (marked, can initiate the interaction)
or a synchron (unmarked, participates only if someone else initiates).
The meaning of a term is a set of interactions (sets of ports):

- with at least one trigger among the factors, any sub-multiset of the
  factors containing at least one trigger may fire, each contributing
  one of its own interactions;
- with no triggers, every factor must contribute exactly one.

The constants ZeroLeaf (no interaction) and OneLeaf (only the empty
interaction) complete the algebra but are not expressible in the DSL.

interactions_of computes that set as a set fold over the factors, which
merges equal unions as it goes: the triggers' unions first, then each
synchron joining optionally (or, without triggers, every factor
joining).  support reads the ports that template_of collects.

The term classes are frozen values with slots and no instance dict: a
parsed model keeps one node per occurrence in its connectors' terms,
and a node costs its fields alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

Interaction = frozenset[str]

AcTerm = Union["PortLeaf", "ZeroLeaf", "OneLeaf", "Fusion"]


@dataclass(frozen=True, slots=True)
class PortLeaf:
    """A port; `dsl.parse` gives each name one string object."""

    port: str


@dataclass(frozen=True, slots=True)
class ZeroLeaf:
    """The constant with no interaction."""


@dataclass(frozen=True, slots=True)
class OneLeaf:
    """The constant whose only interaction is the empty one."""


@dataclass(frozen=True, slots=True)
class Factor:
    """A term in a fusion, marked as a trigger or not (a synchron)."""

    term: AcTerm
    trigger: bool = False


@dataclass(frozen=True, slots=True)
class Fusion:
    """Factors fused into one connector term; at least one."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("fusion needs at least one factor")


def fusion(factors: Iterable[Factor]) -> AcTerm:
    """Build a fusion, collapsing a lone unmarked factor to its term.

    Parser and generators share this constructor so that serialized
    terms re-parse to structurally equal values.
    """
    items = tuple(factors)
    if len(items) == 1 and not items[0].trigger:
        return items[0].term
    return Fusion(items)


def support(term: AcTerm) -> frozenset[str]:
    """All ports occurring in the term, including under dead branches:
    the ports that `template_of` collects."""
    return frozenset(template_of(term)[1])


def template_of(term: AcTerm) -> tuple[str, tuple[str, ...]]:
    """The term written with each port as its index among the term's
    ports in order of first occurrence, and those ports: two terms that
    differ only by a renaming of ports share the text, one string."""
    index: dict[str, int] = {}

    def rec(t: AcTerm) -> str:
        if isinstance(t, PortLeaf):
            return str(index.setdefault(t.port, len(index)))
        if isinstance(t, Fusion):
            return "[" + " ".join([rec(f.term) + "'" * f.trigger for f in t.factors]) + "]"
        return type(t).__name__

    return rec(term), tuple(index)


def interactions_of(term: AcTerm) -> frozenset[Interaction]:
    """The interaction set denoted by the term, folded factor by factor:
    the unions of a nonempty selection of triggers, each joined by any
    selection of synchrons; without triggers, every factor joins."""
    if isinstance(term, PortLeaf):
        return frozenset((frozenset((term.port,)),))
    if isinstance(term, OneLeaf):
        return frozenset((frozenset(),))
    if isinstance(term, ZeroLeaf):
        return frozenset()
    triggers = [interactions_of(f.term) for f in term.factors if f.trigger]
    synchrons = [interactions_of(f.term) for f in term.factors if not f.trigger]
    out: set[Interaction] = set() if triggers else {frozenset()}
    for choices in triggers:
        out |= choices | {u | v for u in out for v in choices}
    for choices in synchrons:
        joined = {u | v for u in out for v in choices}
        out = out | joined if triggers else joined
    return frozenset(out)


def interaction_key(a: Interaction) -> tuple[int, tuple[str, ...]]:
    """Deterministic sort key for interactions (size, then lexicographic)."""
    return (len(a), tuple(sorted(a)))
