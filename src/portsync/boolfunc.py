"""Small propositional formula AST over named variables.

Used as the neutral interchange form between causal-rule extraction and
the two evaluation routes (brute-force model enumeration for oracles,
BDD compilation for the symbolic engine).  Valuations are represented
as the set of variables assigned true.  Callers: `causal` builds the
formulas, `symbolic._expr_bdd` compiles them, and the tests evaluate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

BoolExpr = Union["Var", "Const", "Not", "And", "Or"]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    arg: BoolExpr


@dataclass(frozen=True)
class And:
    args: tuple[BoolExpr, ...]


@dataclass(frozen=True)
class Or:
    args: tuple[BoolExpr, ...]


TRUE = Const(True)
FALSE = Const(False)


def conj(args: Iterable[BoolExpr]) -> BoolExpr:
    items = tuple(args)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(args: Iterable[BoolExpr]) -> BoolExpr:
    items = tuple(args)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)


def neg(arg: BoolExpr) -> BoolExpr:
    return Not(arg)


def implies(lhs: BoolExpr, rhs: BoolExpr) -> BoolExpr:
    return Or((Not(lhs), rhs))


def evaluate(expr: BoolExpr, true_vars: frozenset[str] | set[str]) -> bool:
    """Evaluate under the valuation that sets exactly `true_vars` true."""
    if isinstance(expr, Var):
        return expr.name in true_vars
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return not evaluate(expr.arg, true_vars)
    if isinstance(expr, And):
        return all(evaluate(a, true_vars) for a in expr.args)
    if isinstance(expr, Or):
        return any(evaluate(a, true_vars) for a in expr.args)
    raise TypeError(f"not a boolean expression: {expr!r}")


def variables(expr: BoolExpr) -> frozenset[str]:
    out: set[str] = set()
    stack: list[BoolExpr] = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            out.add(e.name)
        elif isinstance(e, Not):
            stack.append(e.arg)
        elif isinstance(e, (And, Or)):
            stack.extend(e.args)
    return frozenset(out)


def models(expr: BoolExpr, universe: Iterable[str]) -> set[frozenset[str]]:
    """All satisfying valuations over `universe`, brute force (2^|U|)."""
    names = sorted(set(universe))
    extra = variables(expr) - set(names)
    if extra:
        raise ValueError(f"expression mentions variables outside the universe: {sorted(extra)}")
    out: set[frozenset[str]] = set()
    for k in range(len(names) + 1):
        for combo in combinations(names, k):
            subset = frozenset(combo)
            if evaluate(expr, subset):
                out.add(subset)
    return out
