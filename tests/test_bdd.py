"""ROBDD kernel: canonicity, operations against truth tables, pick/iterate."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from portsync import bdd, boolfunc as bf
from portsync.bdd import BddError, BddManager
from portsync.generators import gen_bus
from portsync.symbolic import build

from oracles import bdd_table, evaluate, pick_choices, reference_pick_sat, support


@pytest.fixture
def mgr():
    return BddManager(["a", "b", "c", "d"])


class TestBasics:
    def test_terminals(self, mgr):
        assert mgr.true != mgr.false
        assert mgr.node_count(mgr.true) == 0  # internal nodes only

    def test_var_and_evaluate(self, mgr):
        a = mgr.var("a")
        assert evaluate(a, {"a": True, "b": False, "c": False, "d": False})
        assert not evaluate(a, {"a": False, "b": True, "c": True, "d": True})

    def test_unknown_variable(self, mgr):
        with pytest.raises(BddError):
            mgr.var("zz")

    def test_repr_names_the_terminals_and_the_node(self, mgr):
        a = mgr.var("a")
        assert (repr(mgr.false), repr(mgr.true)) == ("BddRef(false)", "BddRef(true)")
        assert repr(a) == f"BddRef(node={a.node})" and a.node > 1

    def test_bool_context_forbidden(self, mgr):
        with pytest.raises(TypeError):
            bool(mgr.var("a"))

    def test_duplicate_name_in_the_order_rejected(self):
        with pytest.raises(BddError, match="duplicate names"):
            BddManager(["a", "b", "a"])

    def test_unknown_operator_rejected(self, mgr):
        with pytest.raises(BddError, match="unknown operator 'nand'"):
            mgr.apply("nand", mgr.var("a"), mgr.var("b"))

    def test_cross_manager_mix_rejected(self, mgr):
        other = BddManager(["a"])
        with pytest.raises(BddError):
            mgr.apply("and", mgr.var("a"), other.var("a"))


class TestCanonicity:
    def test_same_function_same_node(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert ~(a & b) == ~a | ~b  # De Morgan collapses to one node
        assert (a ^ b) == (a & ~b) | (~a & b)
        assert (a | ~a) == mgr.true
        assert (a & ~a) == mgr.false

    def test_double_negation(self, mgr):
        f = mgr.var("a") & mgr.var("c")
        assert ~~f == f

    def test_reduction_no_redundant_tests(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = (a & b) | (~a & b)  # independent of a
        assert f == b
        assert support(f) == frozenset({"b"})

    def test_audit_after_workload(self, mgr):
        rng = random.Random(1)
        fs = [mgr.var(v) for v in "abcd"]
        for _ in range(200):
            op = rng.choice(["and", "or", "xor", "implies"])
            f, g = rng.choice(fs), rng.choice(fs)
            fs.append(mgr.apply(op, f, g))
        mgr.audit()  # raises on any broken invariant


class TestAgainstTruthTables:
    NAMES = ["a", "b", "c", "d"]

    def minterm_bdd(self, mgr, table):
        rows = []
        n = len(self.NAMES)
        for i in range(1 << n):
            if table & (1 << i):
                asg = {name: bool((i >> (n - 1 - k)) & 1)
                       for k, name in enumerate(self.NAMES)}
                rows.append(mgr.cube(asg))
        return mgr.or_all(rows)

    def test_random_pairs(self, mgr):
        rng = random.Random(9)
        nodes = {}
        for _ in range(100):
            t1, t2 = rng.getrandbits(16), rng.getrandbits(16)
            f, g = self.minterm_bdd(mgr, t1), self.minterm_bdd(mgr, t2)
            assert bdd_table(mgr, f, self.NAMES) == t1
            for prev_t, prev_node in nodes.items():
                if prev_t == t1:
                    assert prev_node == f
            nodes[t1] = f
            mask = (1 << 16) - 1
            assert bdd_table(mgr, f & g, self.NAMES) == t1 & t2
            assert bdd_table(mgr, f | g, self.NAMES) == t1 | t2
            assert bdd_table(mgr, f ^ g, self.NAMES) == t1 ^ t2
            assert bdd_table(mgr, f.implies(g), self.NAMES) == ((~t1 | t2) & mask)
            assert bdd_table(mgr, ~f, self.NAMES) == (~t1 & mask)

    def test_restrict_and_exists(self, mgr):
        rng = random.Random(3)
        for _ in range(50):
            t = rng.getrandbits(16)
            f = self.minterm_bdd(mgr, t)
            for name in self.NAMES:
                lo = mgr.restrict(f, name, False)
                hi = mgr.restrict(f, name, True)
                for asg_bits in product([False, True], repeat=4):
                    asg = dict(zip(self.NAMES, asg_bits))
                    forced0 = dict(asg, **{name: False})
                    forced1 = dict(asg, **{name: True})
                    assert evaluate(lo, asg) == evaluate(f, forced0)
                    assert evaluate(hi, asg) == evaluate(f, forced1)
                assert mgr.exists(f, [name]) == lo | hi

    def test_exists_multiple(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | c
        assert mgr.exists(f, ["a", "b"]) == mgr.true
        assert mgr.exists(f & ~c, ["b"]) == (a & ~c)


class TestRelationalProduct:
    NAMES = ["a", "b", "c", "d", "e"]

    def table_bdd(self, mgr, table, names):
        n = len(names)
        return mgr.or_all(
            mgr.cube({nm: bool((i >> (n - 1 - k)) & 1) for k, nm in enumerate(names)})
            for i in range(1 << n) if table & (1 << i))

    def exists_table(self, table, names, quantified):
        # a row survives if some row differing only in quantified bits is set
        n = len(names)
        mask = sum(1 << (n - 1 - names.index(q)) for q in quantified)
        out = 0
        for i in range(1 << n):
            if any(table & (1 << (i & ~mask | j)) for j in range(1 << n) if j & ~mask == 0):
                out |= 1 << i
        return out

    def test_and_exists_against_tables(self):
        mgr = BddManager(self.NAMES)
        rng = random.Random(17)
        # level-skipping sets, and several sets over the same operands so
        # that a cache key without the set would return a stale result
        name_sets = [[], ["a"], ["e"], ["b", "d"], ["a", "c", "e"], ["c"], self.NAMES]
        for _ in range(40):
            t1, t2 = rng.getrandbits(32), rng.getrandbits(32)
            if rng.random() < 0.3:
                t2 |= t1  # overlapping operands reach the early-true cut
            f = self.table_bdd(mgr, t1, self.NAMES)
            g = self.table_bdd(mgr, t2, self.NAMES)
            for names in name_sets:
                table = self.exists_table(t1 & t2, self.NAMES, names)
                want = self.table_bdd(mgr, table, self.NAMES)
                assert mgr.and_exists(f, g, names) == want
                assert mgr.and_exists(g, f, names) == want
                assert mgr.exists(f & g, names) == want
        mgr.audit()

    def test_and_exists_with_constants(self):
        mgr = BddManager(self.NAMES)
        f = mgr.var("a") & mgr.var("c")
        assert mgr.and_exists(f, mgr.true, ["a"]) == mgr.var("c")
        assert mgr.and_exists(f, mgr.false, ["a"]) == mgr.false
        assert mgr.and_exists(f, ~f, ["a", "c"]) == mgr.false
        assert mgr.and_exists(mgr.true, mgr.true, ["b"]) == mgr.true

    def test_shift_is_the_truth_table_rename(self):
        mgr = BddManager(self.NAMES)
        rng = random.Random(23)
        for _ in range(40):
            t = rng.getrandbits(16)
            f = self.table_bdd(mgr, t, self.NAMES[:-1])
            shifted = mgr.shift(f)
            assert shifted == self.table_bdd(mgr, t, self.NAMES[1:])
            assert bdd_table(mgr, shifted, self.NAMES[1:]) == t
            assert mgr.node_count(shifted) == mgr.node_count(f)
        assert mgr.shift(mgr.true) == mgr.true and mgr.shift(mgr.false) == mgr.false
        mgr.audit()

    def test_shift_past_last_variable_rejected(self):
        mgr = BddManager(self.NAMES)
        with pytest.raises(BddError):
            mgr.shift(mgr.var("a") | mgr.var("e"))

    def test_shift_out_of_order_rejected(self):
        # shift moves every level one down, so only a node on the last
        # level can leave the order: it would land on the leaves' level
        two = BddManager(["a", "b"])
        with pytest.raises(BddError, match="moving 'b' to level 2 leaves the order"):
            two.shift(two.var("a") & two.var("b"))
        mgr = BddManager(self.NAMES)
        a, b, c, d = (mgr.var(n) for n in "abcd")
        assert mgr.shift(a & b) == b & c
        assert mgr.shift(a & ~c) == b & ~d

    def test_mixed_managers_rejected(self):
        mgr, other = BddManager(self.NAMES), BddManager(self.NAMES)
        with pytest.raises(BddError):
            mgr.and_exists(mgr.var("a"), other.var("b"), ["a"])
        with pytest.raises(BddError):
            mgr.and_exists(other.var("a"), mgr.var("b"), ["a"])
        with pytest.raises(BddError):
            mgr.shift(other.var("a"))
        with pytest.raises(BddError):
            mgr.pick_sat(other.var("a"), random.Random(0), ["a"])


def random_fn(mgr, rng, free):
    """A random function of a random nonempty subset of `free`."""
    used = sorted(rng.sample(free, rng.randint(1, len(free))), key=mgr.level_of)
    rows = rng.getrandbits(1 << len(used))
    return mgr.or_all(
        mgr.cube({v: bool(row >> k & 1) for k, v in enumerate(used)})
        for row in range(1 << len(used)) if rows >> row & 1)


class CountingRandom(random.Random):
    """A generator that counts its draws."""
    drawn = 0

    def random(self):
        self.drawn += 1
        return super().random()


class TestMaximal:
    # four names interleaved with other levels, as the symbolic order puts
    # state variables before an atom's ports and a primed copy after each
    ORDER = ["s", "a", "a'", "b", "b'", "t", "c", "c'", "d", "d'"]
    NAMES = ["a", "b", "c", "d"]

    def brute(self, mgr, f, free, names):
        """f's models over `free` that no model equal outside `names`
        strictly contains inside `names`, as a disjunction of minterms."""
        rows = [dict(zip(free, bits)) for bits in product((False, True), repeat=len(free))]
        models = [r for r in rows if evaluate(f, r)]

        def below(r, s):
            return (r != s and all(s[v] for v in names if r[v])
                    and all(r[v] == s[v] for v in free if v not in names))

        return mgr.or_all(mgr.cube(r) for r in models if not any(below(r, s) for s in models))

    def test_against_brute_force_on_level_skipping_functions(self):
        mgr = BddManager(self.ORDER)
        rng = random.Random(29)
        level = {n: mgr.level_of(n) for n in self.NAMES}
        above = between = below = 0
        for _ in range(150):
            f = random_fn(mgr, rng, self.NAMES)
            assert mgr.maximal(f, self.NAMES) == self.brute(mgr, f, self.NAMES, self.NAMES)
            sup = sorted(level[n] for n in support(f))
            if sup:
                skipped = set(level.values()) - set(sup)
                above += any(l < sup[0] for l in skipped)
                between += any(sup[0] < l < sup[-1] for l in skipped)
                below += any(l > sup[-1] for l in skipped)
        assert above > 20 and between > 20 and below > 20
        mgr.audit()

    def test_constants(self):
        mgr = BddManager(self.ORDER)
        assert mgr.maximal(mgr.false, self.NAMES) == mgr.false
        assert mgr.maximal(mgr.true, self.NAMES) == mgr.cube({n: True for n in self.NAMES})
        assert mgr.maximal(mgr.true, []) == mgr.true

    def test_two_name_sets_on_one_manager(self):
        # the same functions under a second name set, whose other
        # variables are parameters, must not read the first set's tables
        mgr = BddManager(self.ORDER)
        rng = random.Random(31)
        free = ["a", "a'", "b", "c", "d"]
        for _ in range(60):
            f = random_fn(mgr, rng, free)
            for names in (self.NAMES, ["a", "c"], self.NAMES):
                assert mgr.maximal(f, names) == self.brute(mgr, f, free, names)
        mgr.audit()


class TestNameRecords:
    # a name sequence, its reverse and a sequence of other names of the
    # same length: three records on one manager, the first two with the
    # same levels
    ORDER = TestMaximal.ORDER
    FREE = ["s", "a", "b", "t", "c", "d"]
    SEQUENCES = (["d", "s", "b", "a"], ["a", "b", "s", "d"], ["c", "t", "a", "b"])

    def exists(self, mgr, f, g, names):
        """exists(f & g, names) over FREE, from truth tables."""
        rows = [dict(zip(self.FREE, bits)) for bits in product((False, True), repeat=len(self.FREE))]
        kept = {tuple(r[v] for v in self.FREE if v not in names) for r in rows if evaluate(f & g, r)}
        return mgr.or_all(mgr.cube(r) for r in rows if tuple(r[v] for v in self.FREE if v not in names) in kept)

    def test_operations_interleaved_over_sequences_read_their_own_tables(self):
        # and_exists, maximal, pick_sat and iter_models take turns on each
        # sequence, so each record's tables are filled between the reads
        # of the others; each answer is checked against truth tables
        mgr, rng = BddManager(self.ORDER), random.Random(43)
        maximal = TestMaximal().brute
        for _ in range(30):
            f, g = random_fn(mgr, rng, self.FREE), random_fn(mgr, rng, self.FREE)
            for names in self.SEQUENCES:
                h, seed = random_fn(mgr, rng, names), rng.random()
                models = {frozenset(n for n, bit in zip(names, bits) if bit)
                          for bits in product((False, True), repeat=len(names))
                          if evaluate(h, dict(zip(names, bits)))}
                assert mgr.and_exists(f, g, names) == self.exists(mgr, f, g, names)
                assert set(mgr.iter_models(h, names)) == models
                assert mgr.maximal(f, names) == maximal(mgr, f, self.FREE, names)
                assert mgr.pick_sat(h, random.Random(seed), names) == \
                    reference_pick_sat(mgr, h, names, random.Random(seed))
                assert mgr.maximal(h, names) == maximal(mgr, h, names, names)
        assert len(mgr._records) == len(self.SEQUENCES)
        mgr.audit()


class TestPackedKeys:
    def test_node_store_full_raises(self, monkeypatch):
        # a node id past the packed keys' width is refused, not allocated
        monkeypatch.setattr(bdd, "MAX_NODES", 6)
        mgr = BddManager(list("abcdefgh"))
        with pytest.raises(BddError, match="node store full"):
            mgr.and_all(mgr.var(n) for n in "abcdefgh")
        assert mgr.total_nodes() == 4
        mgr.audit()

    def test_audit_checks_unique_table(self, mgr):
        mgr.var("a") & mgr.var("b")
        mgr.audit()
        mgr._unique.pop(next(iter(mgr._unique)))
        with pytest.raises(BddError, match="missing from the unique table"):
            mgr.audit()


class TestAudit:
    """`audit` names each broken invariant of a store holding the cube
    a & b (node 2 tests b, node 3 tests a with node 2 as its high child)."""

    @pytest.fixture
    def built(self, mgr):
        f = mgr.cube({"a": True, "b": True})
        assert (f.node, mgr._hi[f.node], mgr.total_nodes()) == (3, 2, 2)
        mgr.audit()
        return mgr

    def test_identical_children(self, built):
        built._hi[3] = built._lo[3]
        with pytest.raises(BddError, match="node 3 has identical children"):
            built.audit()

    def test_child_not_below_its_parent(self, built):
        built._var[3] = built._var[2]
        with pytest.raises(BddError, match="node 3 violates the variable order"):
            built.audit()

    def test_store_and_unique_table_of_different_sizes(self, built):
        built._unique[-1] = 2
        with pytest.raises(BddError, match="unique table and node store disagree"):
            built.audit()

    def test_node_ids_past_the_key_width(self, built, monkeypatch):
        monkeypatch.setattr(bdd, "MAX_NODES", 3)
        with pytest.raises(BddError, match="node ids exceed the packed-key width"):
            built.audit()


class TestCubes:
    def test_cube_node_count_matches_width(self, mgr):
        # one internal node per literal
        asg = {"a": True, "c": False, "d": True}
        f = mgr.cube(asg)
        assert mgr.node_count(f) == 3
        assert evaluate(f, {"a": True, "b": False, "c": False, "d": True})
        assert not evaluate(f, {"a": True, "b": False, "c": True, "d": True})

    def test_empty_cube(self, mgr):
        assert mgr.cube({}) == mgr.true

    def test_restrict_many_equals_chained_restrict(self, mgr):
        a, b, c, d = (mgr.var(v) for v in "abcd")
        f = (a | b) & (c | ~d)
        g1 = mgr.restrict_many(f, {"a": False, "d": True})
        g2 = mgr.restrict(mgr.restrict(f, "a", False), "d", True)
        assert g1 == g2 == (b & c)


def minterms(mgr, rows, levels):
    """`BddManager.from_rows` of one full minterm per row of levels."""
    return mgr.from_rows([(row, None, ()) for row in rows], levels)


def none(mgr, names):
    """Every variable of `names` false."""
    return mgr.cube(dict.fromkeys(names, False))


class TestMinterms:
    # listed levels interleaved with unlisted ones, as the symbolic order
    # puts state variables before an atom's ports and a primed copy after each
    ORDER = ["s", "a", "a'", "b", "t", "c", "c'", "d"]
    LISTED = [7, 2, 1, 5, 3, 6, 2]  # unsorted, level 2 twice; 0 and 4 unlisted

    def check(self, mgr, rows, levels):
        """The constructor's node is the disjunction of one cube per row
        over the listed levels, and its truth table over them has exactly
        the rows' minterms."""
        rows = [list(r) for r in rows]
        f = minterms(mgr, rows, levels)
        names = [mgr.variables[l] for l in sorted(set(levels))]
        assert f == mgr.or_all(mgr.cube({n: mgr.level_of(n) in r for n in names}) for r in rows)
        table = 0
        for r in rows:
            table |= 1 << sum(1 << len(names) - 1 - k for k, n in enumerate(names) if mgr.level_of(n) in r)
        assert bdd_table(mgr, f, names) == table
        mgr.audit()
        return f

    def test_rows_sharing_prefixes_and_duplicate_rows(self):
        mgr = BddManager(self.ORDER)
        rows = [[1, 2], [1, 2, 7], [1, 3], [2, 1], [1, 1, 2], [3, 6], [3, 6, 7], [5, 6], [2, 5, 6]]
        f = self.check(mgr, rows, range(1, 8))
        assert evaluate(f, {"a": True, "a'": True}) and not evaluate(f, {"a": True})
        rng = random.Random(32)
        for _ in range(150):
            rows = [rng.sample(range(8), rng.randint(0, 8)) for _ in range(rng.randint(1, 12))]
            rows += [rng.choice(rows)[::-1] for _ in range(rng.randint(0, 3))]  # duplicates, in another order
            rows += [r + r[:1] for r in rows[:2]]  # a level listed twice in one row
            self.check(mgr, rows, range(8))

    def test_the_empty_row_and_no_rows(self):
        mgr = BddManager(self.ORDER)
        listed = [mgr.variables[l] for l in set(self.LISTED)]
        assert self.check(mgr, [[]], self.LISTED) == none(mgr, listed)
        assert self.check(mgr, [[], [3]], self.LISTED) == none(mgr, ["a", "a'", "c", "c'", "d"])
        assert self.check(mgr, [[3], [], [1, 6]], self.LISTED) == none(mgr, ["a", "a'", "c", "c'", "d"]) | mgr.cube(
            {"a": True, "a'": False, "b": False, "c": False, "c'": True, "d": False})
        before = mgr.total_nodes()
        assert minterms(mgr, [], self.LISTED) == mgr.false
        assert minterms(mgr, [[]], []) == mgr.true
        assert minterms(mgr, [], []) == mgr.false
        assert mgr.total_nodes() == before

    def test_listed_levels_interleaved_with_unlisted(self):
        mgr = BddManager(self.ORDER)
        listed = sorted(set(self.LISTED))
        rng = random.Random(7)
        for _ in range(150):
            rows = [rng.sample(listed, rng.randint(0, len(listed))) for _ in range(rng.randint(1, 8))]
            f = self.check(mgr, rows, self.LISTED)
            assert not {"s", "t"} & support(f)

    def test_a_manager_holding_other_nodes(self):
        # other functions over the same levels share their nodes with the
        # minterms; what the constructor adds is reachable from its result
        rng = random.Random(11)
        for _ in range(40):
            mgr, fresh = BddManager(self.ORDER), BddManager(self.ORDER)
            for _ in range(rng.randint(1, 4)):
                random_fn(mgr, rng, self.ORDER)
            rows = [rng.sample(range(8), rng.randint(0, 8)) for _ in range(rng.randint(1, 10))]
            before = mgr.total_nodes()
            f = minterms(mgr, rows, range(8))
            assert mgr.total_nodes() - before <= mgr.node_count(f)
            assert self.check(mgr, rows, range(8)) == f
            assert mgr.node_count(f) == fresh.node_count(minterms(fresh, rows, range(8)))

    def test_a_relation_deeper_than_the_default_recursion_limit(self):
        # 1200 levels, above CPython's default recursion limit of 1000: the
        # row of every level splits the rows at each of them
        n = 1200
        mgr = BddManager([f"v{i}" for i in range(n)])
        rng = random.Random(5)
        rows = [range(n), [], range(0, n, 2), range(1, n, 3), *(rng.sample(range(n), 40) for _ in range(20))]
        f = minterms(mgr, rows, range(n))
        assert f == mgr.or_all(mgr.cube({f"v{i}": i in r for i in range(n)}) for r in map(set, rows))
        for r in map(set, rows):
            assert evaluate(f, {f"v{i}": True for i in r})
        assert not evaluate(f, {"v0": True})
        assert mgr.sat_count(f) == len(rows)
        mgr.audit()


class TestFromRows:
    # rows that carry a node written over some listed levels, read through
    # the row's own levels in order, mixed with minterm rows
    ORDER = TestMinterms.ORDER

    @staticmethod
    def table_fn(mgr, table, levels):
        """The function over `levels` whose truth table, first level most
        significant, is `table`."""
        n = len(levels)
        return mgr.or_all(mgr.cube({mgr.variables[l]: bool(i >> n - 1 - k & 1) for k, l in enumerate(levels)})
                          for i in range(1 << n) if table >> i & 1)

    def test_function_rows_against_truth_tables(self):
        # each row's table, moved onto its own levels with every other
        # listed level false; nodes that skip written levels, constant
        # nodes, rows of no level, a node shared by rows and minterm rows
        mgr = BddManager(self.ORDER)
        rng = random.Random(43)
        n = len(self.ORDER)
        read = 0
        for _ in range(300):
            listed = sorted(rng.sample(range(n), rng.randint(0, n)))
            rows, want, shared = [], mgr.false, {}
            for _ in range(rng.randint(0, 6)):
                k = rng.randint(0, len(listed))
                mine = sorted(rng.sample(listed, k))
                others = none(mgr, [mgr.variables[l] for l in listed if l not in mine])
                if rng.random() < 0.3:  # a minterm, its levels in any order
                    rows.append((rng.sample(mine, k), None, ()))
                    want |= mgr.cube({mgr.variables[l]: True for l in mine}) & others
                    continue
                written, t = shared.setdefault(k, (sorted(rng.sample(listed, k)), rng.getrandbits(1 << k)))
                rows.append((mine, self.table_fn(mgr, t, written), written))
                want |= self.table_fn(mgr, t, mine) & others
                read += mine != written
            assert mgr.from_rows(rows, listed) == want
        assert read > 150
        mgr.audit()

    def test_a_false_row_is_no_row(self):
        mgr = BddManager(self.ORDER)
        a = mgr.var("a")
        assert mgr.from_rows([([1], mgr.false, [1])], range(8)) == mgr.false
        assert mgr.from_rows([([1], mgr.false, [1]), ([3], a, [1])], range(8)) == mgr.from_rows(
            [([3], None, ())], range(8))
        assert mgr.from_rows([([], mgr.true, [])], [1, 3]) == none(mgr, ["a", "b"])


class TestPickSat:
    NAMES = ("a", "b", "c", "d")

    def test_none_on_false(self, mgr):
        assert mgr.pick_sat(mgr.false, random.Random(0), self.NAMES) is None
        assert mgr.pick_sat(mgr.true, random.Random(0), ()) == frozenset()

    def test_pick_satisfies(self, mgr):
        f = (mgr.var("a") | mgr.var("b")) & (mgr.var("c") ^ mgr.var("d"))
        for seed in range(50):
            asg = mgr.pick_sat(f, random.Random(seed), self.NAMES)
            assert evaluate(f, dict.fromkeys(asg, True))

    def test_all_models_reachable(self, mgr):
        # p OR q has three models; every one must come up over seeds
        f = mgr.var("a") | mgr.var("b")
        seen = set()
        for seed in range(1000):
            asg = mgr.pick_sat(f, random.Random(seed), ["a", "b"])
            seen.add(("a" in asg, "b" in asg))
        assert seen == {(True, False), (False, True), (True, True)}

    def test_draws_from_the_given_generator(self, mgr):
        # successive picks from one generator go on drawing from it
        f = mgr.var("a") | mgr.var("b")
        rng = random.Random(4)
        seen = {mgr.pick_sat(f, rng, ["a", "b"]) for _ in range(200)}
        assert seen == {frozenset("a"), frozenset("b"), frozenset("ab")}

    def test_matches_reference_on_level_skipping_supports(self):
        # the pick walks the names' levels, weighing the branches of each
        # node with two live children by their counts, tossing a fair coin
        # at a skipped level and no coin at a forced one; coins,
        # result and the generator's state afterwards must be those of the
        # reference's sequential draw from the model list, over the support
        # and over names beyond it, in any order
        names = [f"v{i}" for i in range(12)]
        mgr = BddManager(names)
        rng = random.Random(3)
        skipping = 0
        for _ in range(60):
            used = sorted(rng.sample(range(12), rng.randint(1, 8)))
            f = mgr.or_all(
                mgr.cube({names[i]: rng.random() < 0.5 for i in used if rng.random() < 0.7})
                for _ in range(rng.randint(1, 5)))
            levels = sorted(names.index(n) for n in support(f))
            if levels and levels != list(range(levels[0], levels[-1] + 1)):
                skipping += 1
            over = [*support(f), *rng.sample(names, rng.randint(0, 3))]
            rng.shuffle(over)
            for seed in range(30):
                ours, ref = random.Random(seed), random.Random(seed)
                assert mgr.pick_sat(f, ours, over) == reference_pick_sat(mgr, f, over, ref)
                assert ours.getstate() == ref.getstate()
        assert skipping > 20

    def test_one_model_draws_no_coin(self):
        # a function with one model over the names leaves the generator as
        # it was, whatever levels its edges skip between the names
        names = [f"v{i}" for i in range(8)]
        mgr = BddManager(names)
        for values in ({"v0": True}, {"v1": False, "v4": True, "v7": False}, dict.fromkeys(names, True)):
            rng = random.Random(9)
            before = rng.getstate()
            assert mgr.pick_sat(mgr.cube(values), rng, list(values)) == {n for n, v in values.items() if v}
            assert rng.getstate() == before

    def test_coins_are_the_choices_on_the_picked_path(self):
        # one coin per name level where both values keep a model of the
        # function in play, given the names above it as picked
        names = [f"v{i}" for i in range(8)]
        mgr, rng = BddManager(names), random.Random(23)
        forced = 0
        for _ in range(40):
            f = random_fn(mgr, rng, names)
            over = [*support(f), *rng.sample(names, 2)]
            for seed in range(10):
                coins = CountingRandom(seed)
                model = mgr.pick_sat(f, coins, over)
                if model is None:
                    continue
                choices = pick_choices(mgr, f, over, model)
                assert coins.drawn == sum(0 < len(high) < len(models) for models, high in choices)
                forced += coins.drawn < len(choices)
        assert forced > 100

    def test_nonsupport_defaults_false(self, mgr):
        # a name outside `names` is false; a name in them outside the
        # support is a don't-care, true in half the picks
        f = mgr.var("a")
        for seed in range(20):
            assert mgr.pick_sat(f, random.Random(seed), ["a"]) == {"a"}
        rng = random.Random(5)
        picks = [mgr.pick_sat(f, rng, ["a", "c"]) for _ in range(400)]
        assert set(picks) == {frozenset("a"), frozenset("ac")}
        assert 160 < picks.count(frozenset("a")) < 240

    def test_names_must_cover_the_support(self, mgr):
        f = mgr.var("a") & mgr.var("c") | mgr.var("d")
        for names in (["a", "c"], ["c", "d"], ["a", "d"]):
            with pytest.raises(BddError, match="must cover the support"):
                for seed in range(8):
                    mgr.pick_sat(f, random.Random(seed), names)

    def test_picks_are_uniform(self):
        # over every model of random functions, against exact uniformity:
        # the total chi-square over the functions stays within 6 standard
        # deviations of its degrees of freedom (the bound was fixed before
        # the first run)
        names = [f"v{i}" for i in range(6)]
        mgr, rng = BddManager(names), random.Random(41)
        chi2 = dof = 0
        for _ in range(20):
            f = random_fn(mgr, rng, names)
            models = list(mgr.iter_models(f, names))
            draws = [mgr.pick_sat(f, rng, names) for _ in range(100 * len(models))]
            assert set(draws) == set(models)
            chi2 += sum((draws.count(m) - 100) ** 2 / 100 for m in models)
            dof += len(models) - 1
        assert dof > 100 and chi2 <= dof + 6 * (2 * dof) ** 0.5, (chi2, dof)


class TestSatCount:
    def test_matches_truth_tables_on_level_skipping_supports(self):
        # models over every variable of the manager: each level a path
        # skips (above the root, between nodes, below the last test)
        # doubles the count
        names = [f"v{i}" for i in range(8)]
        mgr = BddManager(names)
        rng = random.Random(9)
        skipping = 0
        for _ in range(80):
            used = sorted(rng.sample(range(8), rng.randint(1, 5)))
            rows = rng.getrandbits(1 << len(used))
            f = mgr.or_all(
                mgr.cube({names[i]: bool(row >> k & 1) for k, i in enumerate(used)})
                for row in range(1 << len(used)) if rows >> row & 1)
            levels = sorted(names.index(n) for n in support(f))
            if levels and levels != list(range(levels[0], 8)):
                skipping += 1
            assert mgr.sat_count(f) == bin(bdd_table(mgr, f, names)).count("1")
        assert skipping > 40
        assert mgr.sat_count(mgr.false) == 0
        assert mgr.sat_count(mgr.true) == 256


class TestIterModels:
    def test_counts_match_brute_force(self, mgr):
        rng = random.Random(11)
        names = ["a", "b", "c", "d"]
        for _ in range(30):
            t = rng.getrandbits(16)
            f = TestAgainstTruthTables().minterm_bdd(mgr, t)
            got = set(mgr.iter_models(f, names))
            want = set()
            for i in range(16):
                if t & (1 << i):
                    want.add(frozenset(
                        n for k, n in enumerate(names) if (i >> (3 - k)) & 1))
            assert got == want

    def test_expands_skipped_name_levels(self):
        # names interleaved with other variables, out of order and with a
        # repeat; functions skip name levels above the root, between
        # nodes and below the last test, and no model comes twice
        order = [f"v{i}" for i in range(8)]
        mgr = BddManager(order)
        names = ["v6", "v0", "v3", "v5", "v1", "v3"]
        distinct = sorted(set(names))
        rng = random.Random(5)

        def models(f):
            return {frozenset(n for n, bit in zip(distinct, bits) if bit)
                    for bits in product((False, True), repeat=len(distinct))
                    if evaluate(f, dict(zip(distinct, bits)))}

        skipping = 0
        for _ in range(80):
            used = rng.sample(distinct, rng.randint(1, 4))
            rows = rng.getrandbits(1 << len(used))
            f = mgr.or_all(
                mgr.cube({n: bool(row >> k & 1) for k, n in enumerate(used)})
                for row in range(1 << len(used)) if rows >> row & 1)
            got = list(mgr.iter_models(f, names))
            assert len(got) == len(set(got))
            assert set(got) == models(f)
            skipping += len(support(f)) < len(distinct) and f != mgr.false
        assert skipping > 40
        assert list(mgr.iter_models(mgr.false, names)) == []
        assert len(set(mgr.iter_models(mgr.true, names))) == 1 << len(distinct)

    def test_requires_support_coverage(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        with pytest.raises(BddError):
            list(mgr.iter_models(f, ["a"]))

    def test_reports_the_names_missing_from_the_support(self, mgr):
        # c is tested and left out of the names; b is named and never tested
        f = mgr.var("a") & ~mgr.var("c") | mgr.var("d")
        with pytest.raises(BddError, match=r"must cover the support; missing \['c'\]"):
            mgr.iter_models(f, ["d", "b", "a"])
        assert len(list(mgr.iter_models(f, ["d", "c", "b", "a"]))) == 10

    def test_reports_missing_names_in_level_order_on_a_wide_order(self):
        # on bus16's 384 levels, the tested names a sequence leaves out
        # come back in ascending level order, whatever the sequence's
        # order, the last level included
        order = build(gen_bus(16)).manager.variables
        assert len(order) == 384
        mgr, rng = BddManager(order), random.Random(37)
        cases = [({5, 383}, {383}), ({0, 383}, {0, 383})]
        for _ in range(40):
            tested = set(rng.sample(range(384), rng.randint(1, 12)))
            if rng.random() < 0.5:
                tested.add(383)
            cases.append((tested, set(rng.sample(sorted(tested), rng.randint(1, len(tested))))))
        for tested, missing in cases:
            f = mgr.cube({order[l]: rng.random() < 0.5 for l in tested})
            names = [n for l, n in enumerate(order) if l not in missing and (l in tested or rng.random() < 0.3)]
            rng.shuffle(names)
            want = [order[l] for l in sorted(missing)]
            with pytest.raises(BddError) as raised:
                mgr.iter_models(f, names)
            assert str(raised.value) == f"model variables must cover the support; missing {want}"


def test_deep_conjunction_no_recursion_blowup():
    names = [f"v{i}" for i in range(400)]
    mgr = BddManager(names)
    f = mgr.and_all([mgr.var(n) for n in names])
    assert mgr.node_count(f) == 400
    assert evaluate(f, {n: True for n in names})


@st.composite
def small_exprs(draw, depth=3):
    vs = ["a", "b", "c", "d"]
    if depth == 0:
        return draw(st.sampled_from([bf.Var(v) for v in vs] + [bf.TRUE, bf.FALSE]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(small_exprs(depth=0))
    if kind == 1:
        return bf.Not(draw(small_exprs(depth=depth - 1)))
    parts = tuple(draw(small_exprs(depth=depth - 1))
                  for _ in range(draw(st.integers(2, 3))))
    return bf.And(parts) if kind == 2 else bf.Or(parts)


@settings(max_examples=150, deadline=None)
@given(small_exprs())
def test_bdd_agrees_with_formula_evaluation(e):
    names = ["a", "b", "c", "d"]
    mgr = BddManager(names)

    def build(x):
        if isinstance(x, bf.Var):
            return mgr.var(x.name)
        if isinstance(x, bf.Const):
            return mgr.true if x.value else mgr.false
        if isinstance(x, bf.Not):
            return ~build(x.arg)
        if isinstance(x, bf.And):
            return mgr.and_all([build(p) for p in x.args])
        return mgr.or_all([build(p) for p in x.args])

    f = build(e)
    for bits in product([False, True], repeat=4):
        asg = dict(zip(names, bits))
        want = bf.evaluate(e, {n for n, b in asg.items() if b})
        assert evaluate(f, asg) == want
