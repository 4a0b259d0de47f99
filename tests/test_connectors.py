"""Connector term semantics: interaction sets, support and the fusion constructor."""

from itertools import combinations

import pytest

from portsync.connectors import (
    Factor,
    Fusion,
    OneLeaf,
    PortLeaf,
    ZeroLeaf,
    fusion,
    interaction_key,
    interactions_of,
    support,
)


def syn(x):
    return Factor(x, trigger=False)


def trig(x):
    return Factor(x, trigger=True)


def p(name):
    return PortLeaf(name)


def iset(*words):
    return frozenset(frozenset(w) for w in words)


RV = Fusion((syn(p("s")), syn(p("r1")), syn(p("r2")), syn(p("r3"))))
BC = Fusion((trig(p("s")), syn(p("r1")), syn(p("r2")), syn(p("r3"))))
AB = Fusion((trig(p("s")), syn(Fusion((syn(p("r1")), syn(p("r2")), syn(p("r3")))))))
CC = Fusion((
    trig(p("s")),
    syn(Fusion((trig(p("r1")), syn(Fusion((trig(p("r2")), syn(p("r3")))))))),
))


class TestFourSchemes:
    def test_rendezvous(self):
        assert interactions_of(RV) == iset({"s", "r1", "r2", "r3"})

    def test_broadcast(self):
        want = {frozenset({"s"}) | frozenset(sub)
                for k in range(4)
                for sub in combinations(["r1", "r2", "r3"], k)}
        assert interactions_of(BC) == frozenset(want)

    def test_atomic_broadcast(self):
        assert interactions_of(AB) == iset({"s"}, {"s", "r1", "r2", "r3"})

    def test_causal_chain(self):
        assert interactions_of(CC) == iset(
            {"s"}, {"s", "r1"}, {"s", "r1", "r2"}, {"s", "r1", "r2", "r3"})


class TestSmallTerms:
    def test_two_synchrons(self):
        assert interactions_of(Fusion((syn(p("p")), syn(p("q"))))) == iset({"p", "q"})

    def test_trigger_synchron(self):
        t = Fusion((trig(p("p")), syn(p("q"))))
        assert interactions_of(t) == iset({"p"}, {"p", "q"})

    def test_two_triggers(self):
        t = Fusion((trig(p("p")), trig(p("q"))))
        assert interactions_of(t) == iset({"p"}, {"q"}, {"p", "q"})

    def test_trigger_over_nested_trigger(self):
        t = Fusion((trig(p("p")), syn(Fusion((trig(p("q")), syn(p("r")))))))
        assert interactions_of(t) == iset({"p"}, {"p", "q"}, {"p", "q", "r"})

    def test_single_port(self):
        assert interactions_of(p("k")) == iset({"k"})

    def test_one_leaf_is_neutral(self):
        t = Fusion((syn(OneLeaf()), syn(p("q"))))
        assert interactions_of(t) == iset({"q"})

    def test_zero_leaf_synchron_blocks(self):
        # a synchron with no interactions can never be completed
        t = Fusion((syn(ZeroLeaf()), syn(p("q"))))
        assert interactions_of(t) == frozenset()

    def test_zero_leaf_skipped_when_triggered(self):
        t = Fusion((trig(p("q")), syn(ZeroLeaf())))
        assert interactions_of(t) == iset({"q"})

    def test_support(self):
        assert support(CC) == frozenset({"s", "r1", "r2", "r3"})


def test_fusion_smart_constructor():
    assert fusion([syn(p("a"))]) == p("a")
    t = fusion([trig(p("a"))])
    assert isinstance(t, Fusion)  # a lone trigger is not a bare leaf
    assert fusion([syn(p("a")), syn(p("b"))]) == Fusion((syn(p("a")), syn(p("b"))))


def test_fusion_requires_factors():
    with pytest.raises(ValueError):
        Fusion(())


def test_interaction_key_sorts_by_size_then_name():
    pool = [frozenset({"b"}), frozenset({"a", "c"}), frozenset({"a"})]
    assert sorted(pool, key=interaction_key) == [
        frozenset({"a"}), frozenset({"b"}), frozenset({"a", "c"})]
