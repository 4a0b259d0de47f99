"""Causal tree translation, causal rules, and the rule formula."""

import itertools
import random
import time

from hypothesis import example, given, settings, strategies as st

from portsync.boolfunc import models
from portsync.causal import (
    CausalNode,
    CausalRule,
    CausalTree,
    canonical,
    causal_rules,
    ct_interactions,
    rules_to_formula,
    tau,
)
from portsync.connectors import Factor, Fusion, OneLeaf, PortLeaf, ZeroLeaf, interactions_of, support
from portsync.generators import modulo8, random_monomial_term

from test_connectors import AB, BC, CC, RV, p, syn, trig


def node(label, *children):
    return CausalNode(frozenset(label), tuple(children))


def tree(*roots):
    return CausalTree(tuple(roots))


class TestFourSchemeTrees:
    def test_rendezvous(self):
        assert canonical(tau(RV)) == canonical(tree(node({"s", "r1", "r2", "r3"})))

    def test_broadcast(self):
        want = tree(node({"s"}, node({"r1"}), node({"r2"}), node({"r3"})))
        assert canonical(tau(BC)) == canonical(want)

    def test_atomic_broadcast(self):
        want = tree(node({"s"}, node({"r1", "r2", "r3"})))
        assert canonical(tau(AB)) == canonical(want)

    def test_causal_chain(self):
        want = tree(node({"s"}, node({"r1"}, node({"r2"}, node({"r3"})))))
        assert canonical(tau(CC)) == canonical(want)


def test_two_trigger_tree():
    # p'q'[[r's][t'u]] splits into one tree per trigger over the shared
    # synchron product rt -> (s + u)
    term = Fusion((
        trig(p("p")),
        trig(p("q")),
        syn(Fusion((
            syn(Fusion((trig(p("r")), syn(p("s"))))),
            syn(Fusion((trig(p("t")), syn(p("u"))))),
        ))),
    ))
    sub = lambda: node({"r", "t"}, node({"s"}), node({"u"}))
    want = tree(node({"p"}, sub()), node({"q"}, sub()))
    assert canonical(tau(term)) == canonical(want)


def test_chain_rules_and_root_clause():
    x = modulo8().connectors[0].term
    rules, root_clause = causal_rules(tau(x))
    by_head = {r.head: r.body for r in rules}
    mono = lambda *ws: frozenset(frozenset(w) for w in ws)
    assert by_head == {
        "q": mono({"p", "r"}),
        "r": mono({"p", "q"}),
        "s": mono({"q", "r", "t"}),
        "t": mono({"q", "r", "s"}),
        "u": mono({"s", "t"}),
    }
    assert root_clause == frozenset({"p"})


def test_broadcast_rules_drop_vacuous_heads():
    rules, root_clause = causal_rules(tau(BC))
    assert {r.head for r in rules} == {"r1", "r2", "r3"}
    assert all(r.body == frozenset({frozenset({"s"})}) for r in rules)
    assert root_clause == frozenset({"s"})


def test_merged_rule_bodies_union_occurrences():
    # same port under two triggers: each occurrence contributes a monomial
    term = Fusion((
        trig(p("p")),
        trig(p("q")),
        syn(Fusion((
            syn(Fusion((trig(p("r")), syn(p("s"))))),
            syn(Fusion((trig(p("t")), syn(p("u"))))),
        ))),
    ))
    rules, root_clause = causal_rules(tau(term))
    by_head = {r.head: r.body for r in rules}
    assert root_clause == frozenset({"p", "q"})
    assert by_head["r"] == frozenset({frozenset({"p", "t"}), frozenset({"q", "t"})})
    assert by_head["s"] == frozenset({frozenset({"r", "t"})})


def test_rules_formula_matches_interactions():
    for term in (RV, BC, AB, CC):
        rules, root_clause = causal_rules(tau(term))
        f = rules_to_formula(rules, root_clause, support(term))
        got = models(f, sorted(support(term)))
        assert got == set(interactions_of(term)) - {frozenset()}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000))
def test_tree_semantics_preservation(seed):
    rng = random.Random(seed)
    ports = [f"x{i}" for i in range(rng.randint(1, 6))]
    term = random_monomial_term(rng, ports, max_depth=4)
    assert ct_interactions(tau(term)) == interactions_of(term)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_rule_formula_faithful_on_random_terms(seed):
    rng = random.Random(seed)
    ports = [f"x{i}" for i in range(rng.randint(1, 5))]
    term = random_monomial_term(rng, ports, max_depth=3)
    rules, root_clause = causal_rules(tau(term))
    f = rules_to_formula(rules, root_clause, support(term))
    got = models(f, sorted(support(term)))
    assert got == set(interactions_of(term)) - {frozenset()}


def test_canonical_ignores_sibling_order():
    a = tree(node({"s"}, node({"r1"}), node({"r2"})))
    b = tree(node({"s"}, node({"r2"}), node({"r1"})))
    assert canonical(a) == canonical(b)
    assert a != b


# nested fusions of 1-5 factors, each a trigger or a synchron, with the
# constants 1 and 0 among at most 9 leaves and each port once: `models`
# enumerates every valuation of the support
def _fresh_ports(term):
    names = (f"x{i}" for i in itertools.count())

    def rec(t):
        if isinstance(t, PortLeaf):
            return PortLeaf(next(names))
        if isinstance(t, Fusion):
            return Fusion(tuple(Factor(rec(f.term), f.trigger) for f in t.factors))
        return t

    return rec(term)


_terms = st.recursive(
    st.sampled_from([PortLeaf("x")] * 3 + [OneLeaf(), ZeroLeaf()]),  # a port 3 times as often as each constant
    lambda kids: st.lists(st.builds(Factor, kids, st.booleans()), min_size=1, max_size=5)
    .map(lambda fs: Fusion(tuple(fs))),
    max_leaves=9,
).map(_fresh_ports)


# [[x0' x1 x2' x3' x4] [x5 x6' x7 x8']]: 9 ports and 336 interactions, but
# the product of its roots' choice counts is far larger, so a walk over
# every combination of root choices takes seconds
_TWO_FUSIONS = Fusion((
    syn(Fusion((trig(p("x0")), syn(p("x1")), trig(p("x2")), trig(p("x3")), syn(p("x4"))))),
    syn(Fusion((syn(p("x5")), trig(p("x6")), syn(p("x7")), trig(p("x8"))))),
))


@settings(max_examples=300, deadline=None)
@given(_terms)
@example(_TWO_FUSIONS)
def test_nary_tree_and_rules_match_interactions(term):
    tree = tau(term)
    assert ct_interactions(tree) == interactions_of(term)
    f = rules_to_formula(*causal_rules(tree), support(term))
    assert models(f, sorted(support(term))) == set(interactions_of(term)) - {frozenset()}


def test_empty_labels_pass_causality_through():
    # [1' s] and [p' [1' s]]: s needs no one in the first and p in the second
    one_s = Fusion((trig(OneLeaf()), syn(p("s"))))
    rules, root_clause = causal_rules(tau(one_s))
    assert rules == () and root_clause == frozenset({"s"})
    rules, root_clause = causal_rules(tau(Fusion((trig(p("p")), syn(one_s)))))
    assert rules == (CausalRule("s", frozenset({frozenset({"p"})})),)
    assert root_clause == frozenset({"p"})


def test_tree_interactions_merge_equal_unions():
    start = time.process_time()
    got = ct_interactions(tau(_TWO_FUSIONS))
    assert time.process_time() - start < 1.0
    assert got == interactions_of(_TWO_FUSIONS) and len(got) == 336


def test_an_empty_labelled_root_selected_alone_counts():
    # [1' s]: the trigger 1 fires alone as the empty interaction
    one_s = Fusion((trig(OneLeaf()), syn(p("s"))))
    want = {frozenset(), frozenset({"s"})}
    assert interactions_of(one_s) == want and ct_interactions(tau(one_s)) == want


def test_closed_forms_of_twelve_factors():
    rs = [f"r{i}" for i in range(1, 13)]
    subsets = {frozenset(c) for k in range(13) for c in itertools.combinations(rs, k)}
    # s' r1 ... r12: s with any subset of the receivers
    broadcast = Fusion((trig(p("s")), *(syn(p(r)) for r in rs)))
    want = {frozenset({"s"}) | r for r in subsets}
    assert len(want) == 2 ** 12
    assert interactions_of(broadcast) == want and ct_interactions(tau(broadcast)) == want
    # r1' ... r12': every nonempty subset
    triggers = Fusion(tuple(trig(p(r)) for r in rs))
    want = subsets - {frozenset()}
    assert len(want) == 2 ** 12 - 1
    assert interactions_of(triggers) == want and ct_interactions(tau(triggers)) == want
