"""Reduced ordered binary decision diagrams with hash-consed nodes.

A manager owns the node store and a fixed variable order chosen at
construction; functions are opaque handles into that store.  Reduction
(no node with identical children, no duplicate nodes) is maintained by
construction, so handle equality is function equality.

The kernel has one recursion per job: and, or and not build every other
connective (xor, implies), a cofactor is the relational product
`and_exists` (the conjunction quantified on the fly, never built) of the
function with the assignment's cube, and `balanced` folds every n-ary
join.  Besides these the manager computes a conjunction with factors
over disjoint blocks of levels (`and_local`, for the survivor function),
maximal models (`maximal`, for maximal progress), the rename by one
level (`shift`, for explicit priority pairs: a structural copy under an
order-preserving map of levels, by the kernel's rename recursion), and
model counts, uniform picks and model sets over a sequence of names for
the engines.
Operations that only tests need (evaluation along a path, support names,
a three-operand `ite`) live with the tests' oracles.  A per-call
recursive closure drops its name on return, leaving no cycle to collect.

The unique table and the computed tables (one per operation: and, or,
not, `and_local`, one per variable set of `and_exists` or `maximal` and
one for `shift`, as in Brace, Rudell and Bryant, DAC 1990) are dicts
keyed by ints that pack the operand node ids, `NODE_BITS` bits each.  A
node's support is memoised as a bitmask over levels, its model count and
the odds of its high branch in a pick too, and per block partition of
`and_local` its relevant blocks, with the factor nodes already checked
against the partition.  `pick_sat` and `iter_models` walk a name
sequence's levels, memoised per sequence; `iter_models` walks nodes
depth first on one shared path, expanding the name levels an edge skips.

Deliberately small: no complement edges, no garbage collection, no
dynamic reordering.  The node store, the tables (the `and_local`
partitions' relevance memos and checked factors among them) and the
per-node memos grow monotonically for the life of the manager; a
collector would have to clear or remap every one of them.  Long-running
processes should create a fresh manager per encoding.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
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


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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
            op: {} for op in ("and", "or", "not", "and_local")}
        # `shift`'s level map and its rename table
        self._next_levels, self._shift_table = tuple(range(1, n + 1)), {}
        # quantified name set -> (its levels, the and_exists table)
        self._exists_tables: dict[frozenset[str], tuple[frozenset[int], dict[int, int]]] = {}
        # name set -> (its sorted levels, as a set, the `maximal` and `out` tables)
        self._maximal_tables: dict[frozenset[str], tuple[list[int], frozenset[int], dict, dict]] = {}
        # and_local's blocks -> its per-level block masks, relevance memo and checked factors
        self._local_tables: dict[tuple[tuple[int, ...], ...], tuple] = {}
        self._support_masks: dict[int, int] = {}
        self._sat_counts: dict[int, int] = {FALSE: 0, TRUE: 1}
        self._model_names: dict[tuple[str, ...], tuple] = {}
        self._pick_odds: dict[int, float] = {}
        self._mk, self._and, self._or, self._not, self._rename = self._kernel()
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
        """The node constructor, the recursive connectives and the rename, as
        closures over the node arrays and their tables; each recursion splits
        the cofactors of its top level inline."""
        var, lo, hi, unique, names = self._var, self._lo, self._hi, self._unique, self._names
        t_and, t_or, t_not = (self._tables[op] for op in ("and", "or", "not"))
        B = NODE_BITS

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

        def and_(f: int, g: int) -> int:
            if f > g:
                f, g = g, f
            if f <= TRUE:  # false absorbs, true is the unit
                return g if f else FALSE
            if f == g:
                return f
            key = f << B | g
            r = t_and.get(key)
            if r is None:
                vf, vg = var[f], var[g]
                if vf == vg:
                    r = mk(vf, and_(lo[f], lo[g]), and_(hi[f], hi[g]))
                elif vf < vg:
                    r = mk(vf, and_(lo[f], g), and_(hi[f], g))
                else:
                    r = mk(vg, and_(f, lo[g]), and_(f, hi[g]))
                t_and[key] = r
            return r

        def or_(f: int, g: int) -> int:
            if f > g:
                f, g = g, f
            if f <= TRUE:  # true absorbs, false is the unit
                return TRUE if f else g
            if f == g:
                return f
            key = f << B | g
            r = t_or.get(key)
            if r is None:
                vf, vg = var[f], var[g]
                if vf == vg:
                    r = mk(vf, or_(lo[f], lo[g]), or_(hi[f], hi[g]))
                elif vf < vg:
                    r = mk(vf, or_(lo[f], g), or_(hi[f], g))
                else:
                    r = mk(vg, or_(f, lo[g]), or_(f, hi[g]))
                t_or[key] = r
            return r

        def not_(u: int) -> int:
            # no complement edges: negation copies the graph, terminals swapped
            if u <= TRUE:
                return TRUE - u
            r = t_not.get(u)
            if r is None:
                r = t_not[u] = mk(var[u], not_(lo[u]), not_(hi[u]))
            return r

        def rename(u: int, levels: tuple[int, ...], table: dict[int, int]) -> int:
            # u with the variable at each level l moved to levels[l], memoised in table
            if u <= TRUE:
                return u
            r = table.get(u)
            if r is None:
                l, h, v = rename(lo[u], levels, table), rename(hi[u], levels, table), levels[var[u]]
                if v >= var[l] or v >= var[h]:
                    raise BddError(f"renaming {names[var[u]]!r} to level {v} leaves the order")
                r = table[u] = mk(v, l, h)
            return r

        return mk, and_, or_, not_, rename

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

    def and_local(self, f: BddRef, blocks: Sequence[tuple[int, ...]], factors: Sequence[BddRef]) -> BddRef:
        """f & factors[0] & factors[1] & ..., where factor j mentions only
        the levels blocks[j] and holds where they are all false.  The blocks
        are sorted and follow each other in the order.

        A block is relevant to a node if some model of the node sets one of
        its levels true; an irrelevant factor leaves the node as it is.  So
        the result at node u from block k on is memoised by u and the
        relevant blocks' factors only, and a node that can no longer fire a
        block that changed is shared with every earlier call (the clustering
        of partitioned relational products, Burch, Clarke and Long 1991).  A
        miss walks u with the first relevant factor through its block and
        hands each node below the block on to the next relevant one."""
        u, fs = self._node(f), [self._node(g) for g in factors]
        blocks = tuple(map(tuple, blocks))
        if len(fs) != len(blocks):
            raise BddError("and_local needs one block per factor")
        entry = self._local_tables.get(blocks)
        if entry is None:
            entry = self._local_tables[blocks] = self._local_partition(blocks)
        levels, upto, rel_of, checked = entry
        live = 0  # the blocks whose factor is not true
        for j, g in enumerate(fs):
            if checked.get(g) != j:
                self._check_local(g, blocks[j], j)
                checked[g] = j
            if g != TRUE:
                live |= 1 << j
        var, lo, hi, mk, table = self._var, self._lo, self._hi, self._mk, self._tables["and_local"]
        B = NODE_BITS
        packed: dict[int, int] = {}  # relevant blocks -> their factors, packed above u

        def below(u: int, k: int) -> int:
            # u & the factors of blocks k, k+1, ...; every level of those
            # blocks above u is skipped, so a model of u may set it true
            m = ((rel_of(u) | upto[bisect_left(levels, var[u])]) & live) >> k << k
            if not m:
                return u
            p = packed.get(m)
            if p is None:
                p, s, rest = 0, 0, m
                while rest:
                    low = rest & -rest
                    p |= fs[low.bit_length() - 1] << s
                    s += B
                    rest ^= low
                packed[m] = p
            key = p << B | u
            r = table.get(key)
            if r is None:
                j = (m & -m).bit_length() - 1
                r = table[key] = walk(u, fs[j], j + 1, {})
            return r

        def walk(a: int, b: int, k: int, memo: dict[int, int]) -> int:
            # a & b & the factors from block k on, b a node of block k - 1's factor
            if b == TRUE:
                return below(a, k)
            if a == FALSE or b == FALSE:
                return FALSE
            key = a << B | b
            r = memo.get(key)
            if r is None:
                va, vb = var[a], var[b]
                if va == vb:
                    r = mk(va, walk(lo[a], lo[b], k, memo), walk(hi[a], hi[b], k, memo))
                elif va < vb:
                    r = mk(va, walk(lo[a], b, k, memo), walk(hi[a], b, k, memo))
                else:
                    r = mk(vb, walk(a, lo[b], k, memo), walk(a, hi[b], k, memo))
                memo[key] = r
            return r

        r, below, walk = below(u, 0), None, None
        return self._ref(r)

    def _local_partition(self, blocks: tuple[tuple[int, ...], ...]) -> tuple:
        """For `and_local`: the blocks' levels in order; upto[i], the bits of
        the blocks that own the first i of them; the relevance of a node,
        memoised; and the factors already checked."""
        levels = [l for b in blocks for l in b]
        if levels != sorted(set(levels)) or not all(0 <= l < self._leaf_level for l in levels):
            raise BddError("and_local blocks must be sorted, disjoint levels in block order")
        owner = [j for j, b in enumerate(blocks) for _ in b]
        upto = [0, *((2 << j) - 1 for j in owner)]
        start = [(1 << j) - 1 for j in owner]  # the blocks before the owner of the i-th
        var, lo, hi = self._var, self._lo, self._hi
        rel = {FALSE: 0, TRUE: 0}

        def skipped(a: int, b: int) -> int:
            # the blocks with a level in [a, b)
            i, e = bisect_left(levels, a), bisect_left(levels, b)
            return upto[e] - start[i] if i < e else 0

        def rel_of(u: int) -> int:
            # the blocks that a model of u sets a level of true: on the high
            # edge at u's level, or at a level an edge skips
            r = rel.get(u)
            if r is None:
                v, l, h = var[u], lo[u], hi[u]
                r = 0
                if l != FALSE:
                    r = rel_of(l) | skipped(v + 1, var[l])
                if h != FALSE:
                    r |= rel_of(h) | skipped(v, var[h])
                rel[u] = r
            return r

        return levels, upto, rel_of, {}

    def _check_local(self, g: int, block: tuple[int, ...], j: int) -> None:
        """`and_local`'s precondition on factor j."""
        outside = self._support_mask(g) & ~sum(1 << l for l in block)
        if outside:
            raise BddError(f"factor {j} mentions {[self._names[l] for l in _bits(outside)]} outside its block")
        while g > TRUE:
            g = self._lo[g]
        if g == FALSE:
            raise BddError(f"factor {j} is false where its block is all false")

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
        quantified = frozenset(names)
        entry = self._exists_tables.get(quantified)
        if entry is None:
            levels = frozenset(self.level_of(n) for n in quantified)
            entry = self._exists_tables[quantified] = (levels, {})
        levels, table = entry
        top = max(levels, default=-1)
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
        rename by one level."""
        return self._ref(self._rename(self._node(f), self._next_levels, self._shift_table))

    def maximal(self, f: BddRef, names: Iterable[str]) -> BddRef:
        """The models of f over `names` that no other model of f strictly
        contains, by one memoised recursion per node (Coudert and Madre,
        DAC 1992); other variables are parameters.  At a name level, max(u)
        is max(u1) high and max(u0) & out(u1) low; out(u), the complement of
        u's down-closure, is built directly, so nothing is negated.  A name
        level an edge skips is a don't-care, which `lift` sets true."""
        key = frozenset(names)
        entry = self._maximal_tables.get(key)
        if entry is None:
            levels = sorted(self.level_of(n) for n in key)
            entry = self._maximal_tables[key] = (
                levels, frozenset(levels), {FALSE: FALSE, TRUE: TRUE}, {FALSE: TRUE, TRUE: FALSE})
        levels, is_name, t_max, t_out = entry
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

    def _support_mask(self, u: int) -> int:
        """Bit l is set iff level l is tested somewhere below u; memoised
        per node, so a shared subgraph is walked once."""
        masks, var, lo, hi = self._support_masks, self._var, self._lo, self._hi

        def rec(u: int) -> int:
            if u <= TRUE:
                return 0
            m = masks.get(u)
            if m is None:
                m = masks[u] = 1 << var[u] | rec(lo[u]) | rec(hi[u])
            return m

        m, rec = rec(u), None
        return m

    def sat_count(self, f: BddRef) -> int:
        """Number of satisfying assignments over all the manager's
        variables, from a per-node memo of the count over the levels from
        the node's own down; each skipped level doubles a count."""
        counts, var, lo, hi = self._sat_counts, self._var, self._lo, self._hi

        def rec(u: int) -> int:
            c = counts.get(u)
            if c is None:
                l, h, v = lo[u], hi[u], var[u] + 1
                c = counts[u] = (rec(l) << var[l] - v) + (rec(h) << var[h] - v)
            return c

        u = self._node(f)
        c, rec = rec(u), None
        return c << var[u]

    def _name_levels(self, names: Sequence[str]) -> tuple:
        """A name sequence's level mask, its (level, name) pairs and names
        in level order, and each level's position (the leaf's last), memoised."""
        entry = self._model_names.get(key := tuple(names))
        if entry is None:
            levels = sorted(self.level_of(n) for n in set(key))
            by_pos = [self._names[l] for l in levels]
            entry = self._model_names[key] = (sum(1 << l for l in levels), list(zip(levels, by_pos)), by_pos,
                                              {l: k for k, l in enumerate([*levels, self._leaf_level])})
        return entry

    def pick_sat(self, f: BddRef, rng: random.Random, names: Sequence[str]) -> frozenset[str] | None:
        """The true names of one model of f over `names`, which must cover
        f's support, drawn uniformly; None if f is false.

        The descent goes down the name levels in order and draws one coin
        from `rng` at each, so the pick is deterministic in (f, names, the
        state of rng).  At a node it takes the high branch with probability
        c_hi / (c_lo + c_hi), the branches' model counts (`sat_count`'s
        memo) brought to the level below the node, memoised per node; a
        name level that an edge skips is a don't-care and takes a fair coin."""
        u = self._node(f)
        if u == FALSE:
            return None
        if u not in self._sat_counts:
            self.sat_count(f)
        counts, odds, var, lo, hi = self._sat_counts, self._pick_odds, self._var, self._lo, self._hi
        coin, out = rng.random, []
        for lvl, name in self._name_levels(names)[1]:
            if var[u] == lvl:
                p = odds.get(u)
                if p is None:
                    c_hi = counts[hi[u]] << var[hi[u]] + ~lvl
                    p = odds[u] = c_hi / ((counts[lo[u]] << var[lo[u]] + ~lvl) + c_hi)
                take = coin() < p
                u = hi[u] if take else lo[u]
            elif var[u] < lvl:
                break
            else:
                take = coin() < 0.5
            if take:
                out.append(name)
        if u != TRUE:
            raise BddError(f"model variables must cover the support; missing {self._names[var[u]]!r}")
        return frozenset(out)

    def iter_models(self, f: BddRef, names: Sequence[str]) -> Iterator[frozenset[str]]:
        """All satisfying valuations over `names` as sets of true variables.

        `names` must cover the support of f.  One depth-first walk over
        the nodes keeps a single path of true names; a name level that an
        edge skips is expanded both ways.
        """
        root = self._node(f)
        mask, _, by_pos, pos_of = self._name_levels(names)
        missing = self._support_mask(root) & ~mask
        if missing:
            lost = [self._names[l] for l in _bits(missing)]
            raise BddError(f"model variables must cover the support; missing {lost}")
        var, lo, hi = self._var, self._lo, self._hi

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
