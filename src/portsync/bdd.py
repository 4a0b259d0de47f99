"""Reduced ordered binary decision diagrams with hash-consed nodes.

A manager owns the node store and a fixed variable order chosen at
construction; functions are opaque handles into that store.  Reduction
(no node with identical children, no duplicate nodes) is maintained by
construction, so handle equality is function equality.

The kernel has one binary and one unary recursion.  The binary one is
and and or, which differ only in their terminals; the unary one copies
a graph with every level moved down by a fixed distance and the
terminals swapped or kept, which is not (no move, swapped) and `shift`
(one level down, kept, for explicit priority pairs).  And, or and not
build every other connective (xor, implies), a cofactor is the
relational product `and_exists` (the conjunction quantified on the fly,
never built) of the function with the assignment's cube, and `balanced`
folds every n-ary join.  Besides these the manager computes maximal
models (`maximal`, for maximal progress), and model counts, uniform
picks and model sets over a sequence of names for the engines.  A
listed set of rows, each a small function read through its own levels
with every other level false or a full minterm (`from_rows`, for the
connectors and explicit priority pairs), needs no connective: it is
built bottom-up by the node constructor alone.  Operations that only
tests need (evaluation along a path, support names, a three-operand
`ite`) live with the tests' oracles.  The kernel's recursions are
closures built once per manager; every other recursion is a per-call
closure that drops its name on return, leaving no cycle to collect.

The manager keeps four memo families.  The unique table and the
computed tables of and, or, not and `shift` (as in Brace, Rudell and
Bryant, DAC 1990) are dicts keyed by ints that pack the operand node
ids, `NODE_BITS` bits each; a node's model count is memoised per node.
Every operation over a sequence of names reads one record per sequence:
its levels, its names in level order, each level's position, and the
node-keyed tables of `and_exists`, `maximal` and `pick_sat`'s forced
runs, so two sequences never share a table.  `pick_sat` draws coins only
at real choices, memoising each node's forced run down to the next one,
and `iter_models` walks nodes depth first on one shared path, expanding
the name levels an edge skips; it finds the levels a function tests by
walking its nodes, as `node_count` does.

Deliberately small: no complement edges, no garbage collection, no
dynamic reordering.  The node store and the four memo families grow
monotonically for the life of the manager; a collector would have to
clear or remap every one of them.  Long-running processes should create
a fresh manager per encoding.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from functools import reduce
from operator import or_ as bit_or
from typing import Iterable, Iterator, Mapping, Sequence

FALSE = 0
TRUE = 1

NODE_BITS = 32              # width of one node id in a packed table key
MAX_NODES = 1 << NODE_BITS  # node ids the packing can hold


class BddError(Exception):
    pass


def balanced(op, items: Iterable, unit):
    """op folded over `items` pairwise, level by level, so that
    intermediate results stay small; an odd item out moves up last.
    `unit` if there are no items."""
    items = list(items)
    while len(items) > 1:
        pairs = [op(a, b) for a, b in zip(items[::2], items[1::2])]
        items = pairs + items[len(pairs) * 2:]
    return items[0] if items else unit


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
        self._unique: dict[int, int] = {}
        self._tables: dict[str, dict[int, int]] = {
            op: {} for op in ("and", "or", "not", "shift")}
        self._sat_counts: dict[int, int] = {FALSE: 0, TRUE: 1}
        # name sequence -> its record (`_record`)
        self._records: dict[tuple[str, ...], tuple] = {}
        self._mk, self._and, self._or, self._not, self._shift, self._count = self._kernel()
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

    def _kernel(self):
        """The node constructor, the binary recursion as and and or, the
        unary one as not and shift, and the per-node model count memo, as
        closures over the node arrays and their tables; each recursion
        splits the cofactors of its top level inline, lo before hi."""
        var, lo, hi, unique, names, counts = self._var, self._lo, self._hi, self._unique, self._names, self._sat_counts
        tables, leaf, B = self._tables, self._leaf_level, NODE_BITS

        def mk(level: int, l: int, h: int) -> int:
            if l == h:
                return l
            key = (level << B | l) << B | h
            u = unique.get(key)
            if u is None:
                u = len(var)
                if u >= MAX_NODES:
                    raise BddError(f"node store full: {MAX_NODES} nodes")
                var.append(level)
                lo.append(l)
                hi.append(h)
                unique[key] = u
            return u

        def binary(table: dict[int, int], unit: int):
            # the connective whose terminal `unit` gives the other operand and whose other terminal absorbs
            absorb = TRUE - unit

            def rec(f: int, g: int) -> int:
                if f > g:
                    f, g = g, f
                if f <= TRUE:
                    return g if f == unit else absorb
                if f == g:
                    return f
                key = f << B | g
                r = table.get(key)
                if r is None:
                    vf, vg = var[f], var[g]
                    if vf == vg:
                        r = mk(vf, rec(lo[f], lo[g]), rec(hi[f], hi[g]))
                    elif vf < vg:
                        r = mk(vf, rec(lo[f], g), rec(hi[f], g))
                    else:
                        r = mk(vg, rec(f, lo[g]), rec(f, hi[g]))
                    table[key] = r
                return r
            return rec

        def unary(table: dict[int, int], d: int, flip: bool):
            # a copy of the graph with every level moved d down and the terminals swapped if `flip`;
            # one distance for every level keeps their order, so only a node moved onto the
            # leaves' level leaves it
            def rec(u: int) -> int:
                if u <= TRUE:
                    return u ^ flip
                r = table.get(u)
                if r is None:
                    v = var[u] + d
                    if v >= leaf:
                        raise BddError(f"moving {names[var[u]]!r} to level {v} leaves the order")
                    r = table[u] = mk(v, rec(lo[u]), rec(hi[u]))
                return r
            return rec

        def count(u: int) -> int:
            # models over the levels from u's own down; each skipped level doubles a count
            c = counts.get(u)
            if c is None:
                l, h, v = lo[u], hi[u], var[u] + 1
                c = counts[u] = (count(l) << var[l] - v) + (count(h) << var[h] - v)
            return c

        return (mk, binary(tables["and"], TRUE), binary(tables["or"], FALSE), unary(tables["not"], 0, True),
                unary(tables["shift"], 1, False), count)

    def _record(self, names: Iterable[str]) -> tuple:
        """A name sequence's record, made on its first use: its levels
        sorted, them as a set, its names in level order, each level's
        position (the leaf's last), and the node-keyed tables of
        `and_exists`, `maximal` (max and out) and `pick_sat`'s forced
        runs."""
        entry = self._records.get(key := tuple(names))
        if entry is None:
            levels = sorted({self.level_of(n) for n in key})
            entry = self._records[key] = (
                levels, frozenset(levels), [self._names[l] for l in levels],
                {l: k for k, l in enumerate([*levels, self._leaf_level])},
                {}, {FALSE: FALSE, TRUE: TRUE}, {FALSE: TRUE, TRUE: FALSE}, {})
        return entry

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

    def from_rows(self, rows: Iterable[tuple[Iterable[int], BddRef | None, Iterable[int]]],
                  levels: Iterable[int]) -> BddRef:
        """The disjunction over `levels` of one function per row: a row (its
        levels, a node f, the levels f is written over, in order; all of
        them among `levels`) is f read with its k-th written level as the
        row's k-th, every other listed level false; a row whose node is
        None is the full minterm that sets its levels true.  False if there
        are no rows.  Built bottom-up through the unique table by one
        descent of the sorted levels that calls only `mk`: the rows split at
        the first level one of them holds, where each holding row is
        cofactored by its node's next written level, and each level above
        it is false in all of them.  The chain of nodes above a split is
        memoised per row set, so a shared set of suffixes is built once.

        A row is one integer over level positions: the positions it still
        holds, then its node's written positions still to read and its node,
        or its positions alone for a minterm.  A row set is the rows under
        way and the rows yet to start, a suffix of the rows sorted by their
        first position, so a split reads only the rows it changes."""
        levels = sorted(set(levels))
        P = len(levels)
        at, ones, S = {l: 1 << k for k, l in enumerate(levels)}, (1 << P) - 1, 2 * P
        var, lo_, hi_, mk, chains, starting = self._var, self._lo, self._hi, self._mk, {}, {}
        for own, f, written in rows:
            r = sum(at[l] for l in set(own))
            if f is not None:
                if (u := self._node(f)) == FALSE:
                    continue  # a false row is no row
                r |= (sum(at[l] for l in written) | u << P) << P
            starting.setdefault((r & -r & ones).bit_length() - 1, []).append(r)  # -1: it holds no position
        done = frozenset(starting.pop(-1, ()))
        waiting = [*sorted(starting.items()), (P, ())]  # (first position, the rows that start there), closed at P

        def rec(i: int, rows: frozenset[int], k: int) -> int:
            # the node at position i of `rows` and the rows of waiting[k:], which hold no position above i
            chain = chains.get(key := (rows, k))
            if chain is None:
                union = reduce(bit_or, rows, 0) & ones
                start, new = waiting[k]
                j = min(start, (union & -union).bit_length() - 1 if union else P)  # the first position a row holds
                new, k = (new, k + 1) if start == j else ((), k)
                if j == P:
                    top = TRUE if rows else FALSE
                else:
                    lo, hi, bit = [], [], 1 << j
                    for r in (*rows, *new):
                        if not r & bit:
                            lo.append(r)
                        elif r <= ones:  # a minterm: the level true
                            hi.append(r ^ bit)
                        else:  # the node's next written position reads this one
                            u, w = r >> S, r >> P & ones
                            low = w & -w
                            r = r & ones ^ bit | (w ^ low) << P
                            u0, u1 = (lo_[u], hi_[u]) if var[u] == levels[low.bit_length() - 1] else (u, u)
                            if u0:
                                lo.append(r | u0 << S)
                            if u1:
                                hi.append(r | u1 << S)
                    top = mk(levels[j], rec(j + 1, frozenset(lo), k), rec(j + 1, frozenset(hi), len(waiting) - 1))
                chain = chains[key] = (j, [top])
            j, nodes = chain  # nodes[k] is the node at position j - k
            while len(nodes) <= j - i:
                nodes.append(mk(levels[j - len(nodes)], nodes[-1], FALSE))
            return nodes[j - i]

        r, rec = rec(0, done, 0), None
        return self._ref(r)

    # -- boolean operations -------------------------------------------

    def apply(self, op: str, f: BddRef, g: BddRef) -> BddRef:
        u, v = self._node(f), self._node(g)
        and_, or_, not_ = self._and, self._or, self._not
        if op == "and":
            r = and_(u, v)
        elif op == "or":
            r = or_(u, v)
        elif op == "xor":
            r = or_(and_(u, not_(v)), and_(not_(u), v))
        elif op == "implies":
            r = or_(not_(u), v)
        else:
            raise BddError(f"unknown operator {op!r}")
        return self._ref(r)

    def not_(self, f: BddRef) -> BddRef:
        return self._ref(self._not(self._node(f)))

    def and_all(self, fs: Iterable[BddRef]) -> BddRef:
        return self._fold(self._and, TRUE, fs)

    def or_all(self, fs: Iterable[BddRef]) -> BddRef:
        return self._fold(self._or, FALSE, fs)

    def _fold(self, op, unit: int, fs: Iterable[BddRef]) -> BddRef:
        return self._ref(balanced(op, map(self._node, fs), unit))

    # -- cofactor and quantification ----------------------------------

    def restrict(self, f: BddRef, name: str, value: bool) -> BddRef:
        return self.restrict_many(f, {name: value})

    def restrict_many(self, f: BddRef, assignment: Mapping[str, bool]) -> BddRef:
        """Cofactor by a partial assignment: the relational product of f
        with the assignment's cube over the assigned names."""
        return self.and_exists(f, self.cube(assignment), assignment)

    def exists(self, f: BddRef, names: Iterable[str]) -> BddRef:
        """Existential quantification over `names`."""
        return self.and_exists(f, self.true, names)

    def and_exists(self, f: BddRef, g: BddRef, names: Iterable[str]) -> BddRef:
        """exists(f & g, names) in one pass that quantifies while it
        conjoins, so the conjunction is never built: the relational
        product of Burch et al., as CUDD's Cudd_bddAndAbstract."""
        u, v = self._node(f), self._node(g)
        order, levels, _, _, table, _, _, _ = self._record(names)
        top = order[-1] if order else -1
        var, lo, hi = self._var, self._lo, self._hi
        mk, and_, or_ = self._mk, self._and, self._or
        B = NODE_BITS

        def rec(u: int, v: int) -> int:
            if u > v:
                u, v = v, u
            if u == FALSE:
                return FALSE
            vu, vv = var[u], var[v]
            if vu > top and vv > top:
                return and_(u, v)
            key = u << B | v
            r = table.get(key)
            if r is None:
                lvl = vu if vu < vv else vv
                u0, u1 = (lo[u], hi[u]) if vu == lvl else (u, u)
                v0, v1 = (lo[v], hi[v]) if vv == lvl else (v, v)
                l = rec(u0, v0)
                if lvl not in levels:
                    r = mk(lvl, l, rec(u1, v1))
                else:
                    r = l if l == TRUE else or_(l, rec(u1, v1))
                table[key] = r
            return r

        r, rec = rec(u, v), None
        return self._ref(r)

    def shift(self, f: BddRef) -> BddRef:
        """f with every variable renamed to the next one in the order: the
        kernel's unary recursion by one level."""
        return self._ref(self._shift(self._node(f)))

    def maximal(self, f: BddRef, names: Iterable[str]) -> BddRef:
        """The models of f over `names` that no other model of f strictly
        contains, by one memoised recursion per node (Coudert and Madre,
        DAC 1992); other variables are parameters.  At a name level, max(u)
        is max(u1) high and max(u0) & out(u1) low; out(u), the complement of
        u's down-closure, is built directly, so nothing is negated.  A name
        level an edge skips is a don't-care, which `lift` sets true."""
        levels, is_name, _, _, _, t_max, t_out, _ = self._record(names)
        var, lo, hi, mk, and_ = self._var, self._lo, self._hi, self._mk, self._and

        def lift(r: int, top: int, below: int) -> int:
            # the name levels in [top, below), true above r; a false r stays false
            i, j = bisect_left(levels, top), bisect_left(levels, below)
            while r != FALSE and j > i:
                j -= 1
                r = mk(levels[j], FALSE, r)
            return r

        def out(u: int) -> int:
            r = t_out.get(u)
            if r is None:
                o1 = out(hi[u])
                r = t_out[u] = mk(var[u], and_(out(lo[u]), o1) if var[u] in is_name else out(lo[u]), o1)
            return r

        def rec(u: int) -> int:
            r = t_max.get(u)
            if r is None:
                lvl, u0, u1 = var[u], lo[u], hi[u]
                l = lift(rec(u0), lvl + 1, var[u0])
                if lvl in is_name and u1 != FALSE and l != FALSE:
                    l = and_(l, out(u1))
                r = t_max[u] = mk(lvl, l, lift(rec(u1), lvl + 1, var[u1]))
            return r

        u = self._node(f)
        r, rec, out = lift(rec(u), 0, var[u]), None, None
        return self._ref(r)

    # -- inspection ----------------------------------------------------

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

    def sat_count(self, f: BddRef) -> int:
        """Number of satisfying assignments over all the manager's
        variables, from a per-node memo of the count over the levels from
        the node's own down."""
        u = self._node(f)
        return self._count(u) << self._var[u]

    def pick_sat(self, f: BddRef, rng: random.Random, names: Sequence[str]) -> frozenset[str] | None:
        """The true names of one model of f over `names`, which must cover
        f's support, drawn uniformly; None if f is false.

        The descent goes down the name levels in order and draws a coin from
        `rng` only where both values keep a model, so the pick is
        deterministic in (f, names, the state of rng).  At a node with two
        live children it takes the high branch with probability
        c_hi / (c_lo + c_hi), the branches' model counts (`sat_count`'s
        memo) brought to the level below the node; a name level that an
        edge skips is a don't-care and takes a fair coin.  A node's forced
        run, the names set true down the following name levels where one
        child is false and the node and position where it ends (with that
        node's odds if it has two live children), is memoised per name
        sequence."""
        u = self._node(f)
        if u == FALSE:
            return None
        if u not in self._sat_counts:
            self._count(u)
        _, _, by_pos, pos_of, _, _, _, runs = self._record(names)
        counts, var, lo, hi = self._sat_counts, self._var, self._lo, self._hi
        coin, out, i = rng.random, [], 0
        while True:
            p = pos_of.get(var[u])
            if p is None:
                raise BddError(f"model variables must cover the support; missing {self._names[var[u]]!r}")
            while i < p:  # a name level the edge into u skips
                if coin() < 0.5:
                    out.append(by_pos[i])
                i += 1
            if u == TRUE:
                return frozenset(out)
            run = runs.get(u)
            if run is None:
                v, trues, odds = u, [], None
                while v != TRUE and pos_of.get(var[v]) == i:
                    l, h = lo[v], hi[v]
                    if l != FALSE and h != FALSE:
                        c_hi = counts[h] << var[h] + ~var[v]
                        odds = c_hi / ((counts[l] << var[l] + ~var[v]) + c_hi)
                        break
                    if h != FALSE:
                        trues.append(by_pos[i])
                    v, i = l if h == FALSE else h, i + 1
                run = runs[u] = (tuple(trues), v, i, odds)
            trues, u, i, odds = run
            out += trues
            if odds is not None:
                if coin() < odds:
                    out.append(by_pos[i])
                    u = hi[u]
                else:
                    u = lo[u]
                i += 1

    def iter_models(self, f: BddRef, names: Sequence[str]) -> Iterator[frozenset[str]]:
        """All satisfying valuations over `names` as sets of true variables.

        `names` must cover the support of f.  One depth-first walk over
        the nodes keeps a single path of true names; a name level that an
        edge skips is expanded both ways.
        """
        root = self._node(f)
        _, is_name, by_pos, pos_of, _, _, _, _ = self._record(names)
        var, lo, hi = self._var, self._lo, self._hi
        missing = sorted({var[u] for u in self._reachable(root)} - is_name)
        if missing:
            raise BddError(f"model variables must cover the support; missing {[self._names[l] for l in missing]}")

        def walk() -> Iterator[frozenset[str]]:
            path: list[str] = []
            stack = [(root, 0, 0)] if root != FALSE else []  # node, next name position, path length
            while stack:
                u, i, depth = stack.pop()
                del path[depth:]
                while True:
                    if i < pos_of[var[u]]:  # name i skipped: false later, true now
                        stack.append((u, i + 1, len(path)))
                        path.append(by_pos[i])
                    elif u == TRUE:
                        yield frozenset(path)
                        break
                    else:
                        l, u = lo[u], hi[u]
                        if u == FALSE:  # name i false
                            u = l
                            i += 1
                            continue
                        if l != FALSE:
                            stack.append((l, i + 1, len(path)))
                        path.append(by_pos[i])
                    i += 1

        return walk()

    def audit(self) -> None:
        """Check ordering, reduction, and unique-table consistency."""
        if len(self._var) > MAX_NODES:
            raise BddError("node ids exceed the packed-key width")
        for u in range(2, len(self._var)):
            lvl, lo, hi = self._var[u], self._lo[u], self._hi[u]
            if lo == hi:
                raise BddError(f"node {u} has identical children")
            for child in (lo, hi):
                if child > TRUE and self._var[child] <= lvl:
                    raise BddError(f"node {u} violates the variable order")
            if self._unique.get((lvl << NODE_BITS | lo) << NODE_BITS | hi) != u:
                raise BddError(f"node {u} missing from the unique table")
        if len(self._unique) != len(self._var) - 2:
            raise BddError("unique table and node store disagree")
