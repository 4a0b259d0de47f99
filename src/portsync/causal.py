"""Causal trees: hierarchical interaction structure of a connector.

A causal tree is a forest of interaction-labeled nodes.  A node may
participate only if its parent does; siblings are independent.  The
interaction set of a tree is therefore the set of unions over nonempty
parent-closed selections of nodes; ct_interactions computes it as a set
fold, over each node's children and then over the roots.

Trees are the stepping stone between the connector algebra and the
boolean encoding: tau() translates a term into a tree, reading a
fusion with any number of factors directly (the triggers' roots, each
causing every synchron's roots; without triggers, one root per choice
of a root in each synchron), with the constant 1 as an empty-labelled
node and 0 as no node.  causal_rules() reads the tree back as
implications

    p  =>  m1 or m2 or ...

(one per port, bodies are conjunctions of ports) plus a root clause
that at least one port of a topmost non-empty node fires.  The
conjunction of the rules with the root clause characterizes the
interaction set without enumerating it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfunc import BoolExpr, Var, conj, disj, implies, neg
from .connectors import (
    AcTerm,
    Interaction,
    OneLeaf,
    PortLeaf,
    ZeroLeaf,
    interaction_key,
)


@dataclass(frozen=True)
class CausalNode:
    label: Interaction
    children: tuple["CausalNode", ...] = ()


@dataclass(frozen=True)
class CausalTree:
    roots: tuple[CausalNode, ...] = ()


@dataclass(frozen=True)
class CausalRule:
    head: str
    body: frozenset[Interaction]  # disjunction of conjunctive monomials


def tau(term: AcTerm) -> CausalTree:
    """Translate a connector term, fusions of any arity and the
    constants included, into its causal tree."""
    return CausalTree(_tau(term))


def _tau(term: AcTerm) -> tuple[CausalNode, ...]:
    if isinstance(term, PortLeaf):
        return (CausalNode(frozenset((term.port,))),)
    if isinstance(term, OneLeaf):
        return (CausalNode(frozenset()),)
    if isinstance(term, ZeroLeaf):
        return ()
    triggers = [_tau(f.term) for f in term.factors if f.trigger]
    synchrons = [_tau(f.term) for f in term.factors if not f.trigger]
    if triggers:
        # each trigger's roots cause every synchron's roots independently
        tail = tuple(n for roots in synchrons for n in roots)
        return tuple(CausalNode(n.label, n.children + tail) for roots in triggers for n in roots)
    # strong synchronization: one root per choice of a root in each synchron
    out = (CausalNode(frozenset()),)
    for roots in synchrons:
        out = tuple(CausalNode(a.label | b.label, a.children + b.children) for a in out for b in roots)
    return out


def ct_interactions(tree: CausalTree) -> frozenset[Interaction]:
    """Interaction set of the tree: unions over nonempty parent-closed selections.
    Callers: tests/test_acceptance.py and tests/test_causal.py."""

    def node_choices(node: CausalNode) -> frozenset[Interaction]:
        combos: set[Interaction] = {frozenset()}
        for child in node.children:
            picks = node_choices(child)
            combos = {u | v for u in combos for v in picks} | combos
        return frozenset(node.label | c for c in combos)

    out: set[Interaction] = set()
    for root in tree.roots:
        picks = node_choices(root)
        out |= picks | {u | v for u in out for v in picks}
    return frozenset(out)


def causal_rules(tree: CausalTree) -> tuple[tuple[CausalRule, ...], frozenset[str]]:
    """Extract per-port rules and the root clause from a tree.

    Each occurrence of port p in a node labeled a whose nearest
    ancestor with a non-empty label is labeled b (the empty set if
    there is none) contributes the monomial (a | b) - {p} to p's body.
    The root clause holds the ports of the nearest non-empty nodes at
    or below each root, so empty labels (the constant 1) pass
    causality through.  A rule whose body contains the empty monomial
    is vacuously true and dropped (ports that can fire
    unconditionally, e.g. singleton-label roots).  Rules are returned
    sorted by head for determinism.
    """
    bodies: dict[str, set[Interaction]] = {}
    root_clause: set[str] = set()

    def visit(node: CausalNode, parent_label: Interaction) -> None:
        for p in node.label:
            bodies.setdefault(p, set()).add(frozenset((node.label | parent_label) - {p}))
        if not parent_label:
            root_clause.update(node.label)
        for child in node.children:
            visit(child, node.label or parent_label)

    for root in tree.roots:
        visit(root, frozenset())
    rules = tuple(
        CausalRule(p, frozenset(monomials))
        for p, monomials in sorted(bodies.items())
        if frozenset() not in monomials
    )
    return rules, frozenset(root_clause)


def rules_to_formula(
    rules: tuple[CausalRule, ...],
    root_clause: frozenset[str],
    support: frozenset[str] | set[str],
) -> BoolExpr:
    """Conjunction of the rules with the root clause, over `support`.

    Ports in the support that occur in no rule and not in the root
    clause are forced false, so satisfying valuations never invent
    participants.  Callers: `symbolic.encode_connectors`, and
    tests/test_acceptance.py, tests/test_causal.py and the tests' oracles.
    """
    parts: list[BoolExpr] = [disj(Var(p) for p in sorted(root_clause))]
    mentioned = set(root_clause)
    for rule in rules:
        body = disj(
            conj(Var(q) for q in sorted(m))
            for m in sorted(rule.body, key=interaction_key)
        )
        parts.append(implies(Var(rule.head), body))
        mentioned.add(rule.head)
        mentioned.update(p for m in rule.body for p in m)
    for p in sorted(set(support) - mentioned):
        parts.append(neg(Var(p)))
    return conj(parts)


def canonical(tree: CausalTree) -> CausalTree:
    """Sort sibling order recursively; equality of canonical forms is
    equality up to reordering of independent branches.  Callers:
    tests/test_acceptance.py and tests/test_causal.py."""

    def node_key(node: CausalNode):
        return (tuple(sorted(node.label)), tuple(node_key(c) for c in node.children))

    def fix(node: CausalNode) -> CausalNode:
        kids = tuple(sorted((fix(c) for c in node.children), key=node_key))
        return CausalNode(node.label, kids)

    roots = tuple(sorted((fix(r) for r in tree.roots), key=node_key))
    return CausalTree(roots)
