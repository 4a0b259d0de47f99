"""Unit tests for the small formula representation."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from portsync.boolfunc import (
    And,
    Const,
    Not,
    Or,
    Var,
    TRUE,
    FALSE,
    conj,
    disj,
    evaluate,
    implies,
    models,
    neg,
    variables,
)


def test_conj_edge_cases():
    assert conj([]) == TRUE
    assert conj([Var("p")]) == Var("p")
    assert isinstance(conj([Var("p"), Var("q")]), And)


def test_disj_edge_cases():
    assert disj([]) == FALSE
    assert disj([Var("p")]) == Var("p")
    assert isinstance(disj([Var("p"), Var("q")]), Or)


def test_evaluate_nested():
    e = Or((And((Var("p"), Not(Var("q")))), Const(False)))
    assert evaluate(e, {"p"})
    assert not evaluate(e, {"p", "q"})
    assert not evaluate(e, set())


def test_evaluate_refuses_a_non_expression():
    with pytest.raises(TypeError, match="not a boolean expression: 'p'"):
        evaluate("p", {"p"})


def test_implies_truth_table():
    e = implies(Var("p"), Var("q"))
    rows = {
        frozenset(): True,
        frozenset({"q"}): True,
        frozenset({"p"}): False,
        frozenset({"p", "q"}): True,
    }
    for asg, want in rows.items():
        assert evaluate(e, asg) is want


def test_variables():
    e = And((Var("a"), Or((Var("b"), Not(Var("c"))))))
    assert variables(e) == frozenset({"a", "b", "c"})
    assert variables(TRUE) == frozenset()


def test_models_counts():
    got = models(Or((Var("p"), Var("q"))), ["p", "q"])
    assert got == {frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})}
    assert models(FALSE, ["p"]) == set()
    assert models(TRUE, []) == {frozenset()}


def test_models_requires_universe_coverage():
    with pytest.raises(ValueError):
        models(Var("p"), ["q"])


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([Var("p"), Var("q"), Var("r"), TRUE, FALSE]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(exprs(depth=0))
    if kind == 1:
        return Not(draw(exprs(depth=depth - 1)))
    parts = tuple(
        draw(exprs(depth=depth - 1)) for _ in range(draw(st.integers(2, 3)))
    )
    return And(parts) if kind == 2 else Or(parts)


@given(exprs())
def test_de_morgan(e):
    universe = ["p", "q", "r"]
    for bits in product([False, True], repeat=3):
        asg = {v for v, b in zip(universe, bits) if b}
        assert evaluate(Not(e), asg) == (not evaluate(e, asg))


@given(exprs())
def test_models_satisfy(e):
    for m in models(e, ["p", "q", "r"]):
        assert evaluate(e, m)
