"""Reduced ordered binary decision diagrams with hash-consed nodes.

A manager owns the node store and a fixed variable order chosen at
construction; functions are opaque handles into that store.  Reduction
(no node with identical children, no duplicate nodes) is maintained by
construction, so handle equality is function equality.

Besides the boolean connectives, restriction and quantification, the
manager computes the relational product `and_exists` (the conjunction
quantified on the fly, never built) and a one-level variable `shift`,
which is how the symbolic engine evaluates priority.

Deliberately small: no complement edges, no garbage collection, no
dynamic reordering.  The unique table and the operation cache grow
monotonically for the life of the manager; long-running processes
should create a fresh manager per encoding.
"""

from __future__ import annotations

import random
import sys
from typing import Iterable, Iterator, Mapping, Sequence

FALSE = 0
TRUE = 1


class BddError(Exception):
    pass


class BddRef:
    """Handle to a function owned by one manager.

    Canonicity makes equality of handles equivalence of functions.
    Truthiness is disabled: compare against manager.true/false.
    """

    __slots__ = ("manager", "node")

    def __init__(self, manager: "BddManager", node: int):
        self.manager = manager
        self.node = node

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BddRef)
            and self.manager is other.manager
            and self.node == other.node
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise TypeError("BddRef has no truth value; compare with manager.true/false")

    def __and__(self, other: "BddRef") -> "BddRef":
        return self.manager.apply("and", self, other)

    def __or__(self, other: "BddRef") -> "BddRef":
        return self.manager.apply("or", self, other)

    def __xor__(self, other: "BddRef") -> "BddRef":
        return self.manager.apply("xor", self, other)

    def __invert__(self) -> "BddRef":
        return self.manager.not_(self)

    def implies(self, other: "BddRef") -> "BddRef":
        return self.manager.apply("implies", self, other)

    def __repr__(self) -> str:
        if self.node == FALSE:
            return "BddRef(false)"
        if self.node == TRUE:
            return "BddRef(true)"
        return f"BddRef(node={self.node})"


class BddManager:
    def __init__(self, order: Sequence[str]):
        names = list(order)
        if len(set(names)) != len(names):
            raise BddError("variable order contains duplicate names")
        self._names: list[str] = names
        self._level: dict[str, int] = {n: i for i, n in enumerate(names)}
        n = len(names)
        self._leaf_level = n
        # parallel node arrays; slots 0/1 are the terminals, parked at leaf level
        self._var: list[int] = [n, n]
        self._lo: list[int] = [-1, -1]
        self._hi: list[int] = [-1, -1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        self._quant_tokens: dict[frozenset[int], int] = {}
        self.false = BddRef(self, FALSE)
        self.true = BddRef(self, TRUE)
        # recursion depth tracks the order length, one frame per level
        need = 4 * n + 1000
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)

    # -- bookkeeping -------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self._names)

    def level_of(self, name: str) -> int:
        lvl = self._level.get(name)
        if lvl is None:
            raise BddError(f"unknown variable {name!r}")
        return lvl

    def total_nodes(self) -> int:
        """All internal nodes ever allocated (nothing is ever freed)."""
        return len(self._var) - 2

    def _ref(self, node: int) -> BddRef:
        return BddRef(self, node)

    def _node(self, f: BddRef) -> int:
        if not isinstance(f, BddRef) or f.manager is not self:
            raise BddError("operand belongs to a different manager")
        return f.node

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        u = self._unique.get(key)
        if u is None:
            u = len(self._var)
            self._var.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = u
        return u

    # -- construction ------------------------------------------------

    def var(self, name: str) -> BddRef:
        return self._ref(self._mk(self.level_of(name), FALSE, TRUE))

    def cube(self, assignment: Mapping[str, bool]) -> BddRef:
        """Conjunction of literals, built bottom-up without apply calls."""
        items = sorted(((self.level_of(n), bool(v)) for n, v in assignment.items()),
                       reverse=True)
        u = TRUE
        for lvl, val in items:
            u = self._mk(lvl, FALSE, u) if val else self._mk(lvl, u, FALSE)
        return self._ref(u)

    # -- boolean operations -------------------------------------------

    def apply(self, op: str, f: BddRef, g: BddRef) -> BddRef:
        u, v = self._node(f), self._node(g)
        if op == "and":
            r = self._and(u, v)
        elif op == "or":
            r = self._or(u, v)
        elif op == "xor":
            r = self._ite(u, self._ite(v, FALSE, TRUE), v)
        elif op == "implies":
            r = self._ite(u, v, TRUE)
        else:
            raise BddError(f"unknown operator {op!r}")
        return self._ref(r)

    def not_(self, f: BddRef) -> BddRef:
        # negation is ite(f, false, true); no complement edges
        return self._ref(self._ite(self._node(f), FALSE, TRUE))

    def ite(self, f: BddRef, g: BddRef, h: BddRef) -> BddRef:
        return self._ref(self._ite(self._node(f), self._node(g), self._node(h)))

    def _cofactors(self, u: int, level: int) -> tuple[int, int]:
        if self._var[u] == level:
            return self._lo[u], self._hi[u]
        return u, u

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = ("ite", f, g, h)
        r = self._cache.get(key)
        if r is not None:
            return r
        var = self._var
        top = min(var[f], var[g], var[h])
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        r = self._mk(top, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        self._cache[key] = r
        return r

    def _and(self, f: int, g: int) -> int:
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE:
            return g
        if g == TRUE:
            return f
        if f == g:
            return f
        if f > g:
            f, g = g, f
        key = ("and", f, g)
        r = self._cache.get(key)
        if r is not None:
            return r
        var = self._var
        top = min(var[f], var[g])
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        r = self._mk(top, self._and(f0, g0), self._and(f1, g1))
        self._cache[key] = r
        return r

    def _or(self, f: int, g: int) -> int:
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE:
            return g
        if g == FALSE:
            return f
        if f == g:
            return f
        if f > g:
            f, g = g, f
        key = ("or", f, g)
        r = self._cache.get(key)
        if r is not None:
            return r
        var = self._var
        top = min(var[f], var[g])
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        r = self._mk(top, self._or(f0, g0), self._or(f1, g1))
        self._cache[key] = r
        return r

    def and_all(self, fs: Iterable[BddRef]) -> BddRef:
        return self._fold(self._and, TRUE, fs)

    def or_all(self, fs: Iterable[BddRef]) -> BddRef:
        return self._fold(self._or, FALSE, fs)

    def _fold(self, op, unit: int, fs: Iterable[BddRef]) -> BddRef:
        # balanced reduction keeps intermediate results small
        nodes = [self._node(f) for f in fs]
        if not nodes:
            return self._ref(unit)
        while len(nodes) > 1:
            nxt = [op(nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)]
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        return self._ref(nodes[0])

    # -- cofactor and quantification ----------------------------------

    def restrict(self, f: BddRef, name: str, value: bool) -> BddRef:
        return self.restrict_many(f, {name: value})

    def restrict_many(self, f: BddRef, assignment: Mapping[str, bool]) -> BddRef:
        """Cofactor by a partial assignment in one pass."""
        u = self._node(f)
        if not assignment:
            return self._ref(u)
        levels = {self.level_of(n): bool(v) for n, v in assignment.items()}
        top = max(levels)
        var, lo, hi = self._var, self._lo, self._hi
        mk = self._mk
        memo: dict[int, int] = {}

        def rec(u: int) -> int:
            if var[u] > top:
                return u
            r = memo.get(u)
            if r is not None:
                return r
            lvl = var[u]
            val = levels.get(lvl)
            if val is None:
                r = mk(lvl, rec(lo[u]), rec(hi[u]))
            elif val:
                r = rec(hi[u])
            else:
                r = rec(lo[u])
            memo[u] = r
            return r

        return self._ref(rec(u))

    def exists(self, f: BddRef, names: Iterable[str]) -> BddRef:
        """Existential quantification over `names`."""
        return self.and_exists(f, self.true, names)

    def and_exists(self, f: BddRef, g: BddRef, names: Iterable[str]) -> BddRef:
        """exists(f & g, names) in one pass that quantifies while it
        conjoins, so the conjunction is never built: the relational
        product of Burch et al., as CUDD's Cudd_bddAndAbstract."""
        u, v = self._node(f), self._node(g)
        levels = frozenset(self.level_of(n) for n in names)
        token = self._quant_tokens.setdefault(levels, len(self._quant_tokens))
        top = max(levels, default=-1)
        var, cache = self._var, self._cache

        def rec(u: int, v: int) -> int:
            if u == FALSE or v == FALSE:
                return FALSE
            if var[u] > top and var[v] > top:
                return self._and(u, v)
            if u > v:
                u, v = v, u
            key = ("and_exists", token, u, v)
            r = cache.get(key)
            if r is None:
                lvl = min(var[u], var[v])
                (u0, u1), (v0, v1) = self._cofactors(u, lvl), self._cofactors(v, lvl)
                l = rec(u0, v0)
                if lvl not in levels:
                    r = self._mk(lvl, l, rec(u1, v1))
                else:
                    r = l if l == TRUE else self._or(l, rec(u1, v1))
                cache[key] = r
            return r

        return self._ref(rec(u, v))

    def shift(self, f: BddRef) -> BddRef:
        """f with every variable renamed to the next one in the order: a
        structural copy one level down, with no apply."""
        var, lo, hi, cache = self._var, self._lo, self._hi, self._cache
        last = self._leaf_level - 1

        def rec(u: int) -> int:
            if u <= TRUE:
                return u
            r = cache.get(("shift", u))
            if r is None:
                if var[u] == last:
                    raise BddError("the last variable of the order has no successor")
                r = cache[("shift", u)] = self._mk(var[u] + 1, rec(lo[u]), rec(hi[u]))
            return r

        return self._ref(rec(self._node(f)))

    # -- inspection ----------------------------------------------------

    def evaluate(self, f: BddRef, assignment: Mapping[str, bool]) -> bool:
        """Follow the path for `assignment`; missing variables read as false."""
        u = self._node(f)
        while u > TRUE:
            name = self._names[self._var[u]]
            u = self._hi[u] if assignment.get(name, False) else self._lo[u]
        return u == TRUE

    def _reachable(self, u: int) -> set[int]:
        seen: set[int] = set()
        stack = [u]
        while stack:
            v = stack.pop()
            if v <= TRUE or v in seen:
                continue
            seen.add(v)
            stack.append(self._lo[v])
            stack.append(self._hi[v])
        return seen

    def node_count(self, f: BddRef) -> int:
        """Internal nodes reachable from f (terminals excluded)."""
        return len(self._reachable(self._node(f)))

    def support(self, f: BddRef) -> frozenset[str]:
        return frozenset(self._names[self._var[v]] for v in self._reachable(self._node(f)))

    def _support_levels(self, u: int) -> set[int]:
        return {self._var[v] for v in self._reachable(u)}

    def pick_sat(self, f: BddRef, seed: int = 0) -> dict[str, bool] | None:
        """One satisfying assignment, or None if f is false.

        Total over the manager's variables.  At each node a non-forced
        branch is chosen by a seeded coin; support variables skipped on
        the chosen path are also randomized, variables outside the
        support default to false.  Deterministic in (f, seed, order).
        """
        u = self._node(f)
        if u == FALSE:
            return None
        rng = random.Random(seed)
        sup = self._support_levels(u)
        out: dict[str, bool] = {}
        var, lo, hi = self._var, self._lo, self._hi
        for lvl, name in enumerate(self._names):
            if var[u] == lvl:
                l, h = lo[u], hi[u]
                if l == FALSE:
                    take = True
                elif h == FALSE:
                    take = False
                else:
                    take = rng.random() < 0.5
                out[name] = take
                u = h if take else l
            elif lvl in sup:
                out[name] = rng.random() < 0.5
            else:
                out[name] = False
        if u != TRUE:
            raise BddError("descent did not reach the true terminal")
        return out

    def iter_models(self, f: BddRef, names: Sequence[str]) -> Iterator[frozenset[str]]:
        """All satisfying valuations over `names` as sets of true variables.

        `names` must cover the support of f; variables skipped on a path
        are expanded both ways.
        """
        u = self._node(f)
        lvls = sorted(self.level_of(n) for n in set(names))
        by_level = {self._level[n]: n for n in names}
        missing = self._support_levels(u) - set(lvls)
        if missing:
            lost = sorted(self._names[l] for l in missing)
            raise BddError(f"model variables must cover the support; missing {lost}")
        var, lo, hi = self._var, self._lo, self._hi

        def rec(u: int, idx: int) -> Iterator[frozenset[str]]:
            if u == FALSE:
                return
            if idx == len(lvls):
                yield frozenset()
                return
            lvl = lvls[idx]
            name = by_level[lvl]
            if u > TRUE and var[u] == lvl:
                yield from rec(lo[u], idx + 1)
                for m in rec(hi[u], idx + 1):
                    yield m | {name}
            else:
                for m in rec(u, idx + 1):
                    yield m
                    yield m | {name}

        return rec(u, 0)

    def audit(self) -> None:
        """Check ordering, reduction, and unique-table consistency."""
        for u in range(2, len(self._var)):
            lvl, lo, hi = self._var[u], self._lo[u], self._hi[u]
            if lo == hi:
                raise BddError(f"node {u} has identical children")
            for child in (lo, hi):
                if child > TRUE and self._var[child] <= lvl:
                    raise BddError(f"node {u} violates the variable order")
            if self._unique.get((lvl, lo, hi)) != u:
                raise BddError(f"node {u} missing from the unique table")
        if len(self._unique) != len(self._var) - 2:
            raise BddError("unique table and node store disagree")

    def to_dot(self, f: BddRef, name: str = "bdd") -> str:
        """GraphViz rendering; dashed edges are low branches."""
        u = self._node(f)
        lines = [f"digraph {name} {{", "  node [shape=circle];",
                 '  n0 [shape=box, label="0"];', '  n1 [shape=box, label="1"];']
        for v in sorted(self._reachable(u), key=lambda v: (self._var[v], v)):
            lines.append(f'  n{v} [label="{self._names[self._var[v]]}"];')
            lines.append(f"  n{v} -> n{self._lo[v]} [style=dashed];")
            lines.append(f"  n{v} -> n{self._hi[v]};")
        if u <= TRUE:
            lines.append(f"  // function is the {'true' if u else 'false'} terminal")
        lines.append("}")
        return "\n".join(lines)
