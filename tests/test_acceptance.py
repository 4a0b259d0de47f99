"""Acceptance gate: nine criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the ACCEPTANCE
lines as they happen; under plain `-v` the per-test PASSED/FAILED verdicts
carry the same information.  Criterion budgets (wall-clock) are asserted.
"""

import random
import time
from itertools import combinations

from portsync.bdd import BddManager
from portsync.bench import bench
from portsync.boolfunc import evaluate
from portsync.causal import canonical, causal_rules, ct_interactions, tau
from portsync.causal import rules_to_formula
from portsync.connectors import interactions_of, support
from portsync.enumerative import EnumEngine
from portsync.equivalence import check_equivalence
from portsync.generators import (
    gen_bus,
    gen_tasks,
    modulo8,
    random_monomial_term,
    random_system,
)
from portsync.symbolic import SymbolicEngine, build, state_var, variable_order

from test_causal import node, tree
from test_connectors import AB, BC, CC, RV, p, syn, trig, Fusion


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} [{name}]: {verdict}{suffix}")
    return ok


def fz(*names):
    return frozenset(names)


def test_criterion_1_four_scheme_table():
    t0 = time.perf_counter()
    want_sets = {
        RV: {fz("s", "r1", "r2", "r3")},
        BC: {fz("s") | frozenset(c)
             for k in range(4) for c in combinations(["r1", "r2", "r3"], k)},
        AB: {fz("s"), fz("s", "r1", "r2", "r3")},
        CC: {fz("s"), fz("s", "r1"), fz("s", "r1", "r2"),
             fz("s", "r1", "r2", "r3")},
    }
    want_trees = {
        RV: tree(node({"s", "r1", "r2", "r3"})),
        BC: tree(node({"s"}, node({"r1"}), node({"r2"}), node({"r3"}))),
        AB: tree(node({"s"}, node({"r1", "r2", "r3"}))),
        CC: tree(node({"s"}, node({"r1"}, node({"r2"}, node({"r3"}))))),
    }
    ok = True
    for term in (RV, BC, AB, CC):
        ok = ok and interactions_of(term) == frozenset(want_sets[term])
        ok = ok and canonical(tau(term)) == canonical(want_trees[term])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(1, "four-scheme-interactions-and-trees", ok,
                  f"{elapsed:.3f}s")


def test_criterion_2_worked_examples():
    t0 = time.perf_counter()
    two_trigger = Fusion((
        trig(p("p")),
        trig(p("q")),
        syn(Fusion((
            syn(Fusion((trig(p("r")), syn(p("s"))))),
            syn(Fusion((trig(p("t")), syn(p("u"))))),
        ))),
    ))
    sub = lambda: node({"r", "t"}, node({"s"}), node({"u"}))
    want = tree(node({"p"}, sub()), node({"q"}, sub()))
    tree_ok = canonical(tau(two_trigger)) == canonical(want)

    rules, root_clause = causal_rules(tau(modulo8().connectors[0].term))
    by_head = {r.head: r.body for r in rules}
    mono = lambda *ws: frozenset(frozenset(w) for w in ws)
    rules_ok = by_head == {
        "q": mono({"p", "r"}),
        "r": mono({"p", "q"}),
        "s": mono({"q", "r", "t"}),
        "t": mono({"q", "r", "s"}),
        "u": mono({"s", "t"}),
    } and root_clause == fz("p")
    elapsed = time.perf_counter() - t0
    ok = tree_ok and rules_ok and elapsed < 1.0
    assert report(2, "two-trigger-tree-and-chain-rules", ok,
                  f"tree={tree_ok} rules={rules_ok} {elapsed:.3f}s")


def test_criterion_3_semantics_preservation():
    t0 = time.perf_counter()
    failures = 0
    rng = random.Random(2024)
    for _ in range(500):
        ports = [f"x{i}" for i in range(rng.randint(1, 6))]
        term = random_monomial_term(rng, ports, max_depth=4)
        via_term = interactions_of(term)
        via_tree = ct_interactions(tau(term))
        rules, root_clause = causal_rules(tau(term))
        f = rules_to_formula(rules, root_clause, support(term))
        sup = sorted(support(term))
        via_formula = set()
        for k in range(len(sup) + 1):  # exhaustive subset enumeration
            for c in combinations(sup, k):
                if evaluate(f, frozenset(c)):
                    via_formula.add(frozenset(c))
        if via_tree != via_term:
            failures += 1
        elif via_formula != set(via_term) - {frozenset()}:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    assert report(3, "tree-and-boolean-semantics-500-random", ok,
                  f"failures={failures} {elapsed:.1f}s")


def test_criterion_4_cross_engine_equivalence():
    t0 = time.perf_counter()
    systems = [modulo8()]
    systems += [gen_bus(n) for n in (1, 2, 3)]
    systems += [gen_tasks(n, m) for n in (2, 3, 4) for m in (1, 2)]
    systems += [random_system(seed) for seed in range(100)]
    divergent = []
    for sysm in systems:
        rep = check_equivalence(sysm)
        if not rep.equivalent:
            divergent.append(sysm.name)
    elapsed = time.perf_counter() - t0
    ok = not divergent and elapsed < 120.0
    assert report(4, "enum-vs-symbolic-survivor-equality", ok,
                  f"systems={len(systems)} divergent={divergent} {elapsed:.1f}s")


def test_criterion_5_modulo8_trace():
    t0 = time.perf_counter()
    want = ["p", "p q r", "p", "p q r s t", "p", "p q r", "p", "p q r s t u"]
    results = {}
    for label, eng in (("enum", EnumEngine(modulo8(), seed=0)),
                       ("symbolic", SymbolicEngine(modulo8(), seed=0))):
        tr8 = eng.run(8)
        got = [" ".join(sorted(a)) for a in tr8.interactions]
        eng.reset()
        tr16 = eng.run(16)
        u_count = sum(1 for a in tr16.interactions if "u" in a)
        results[label] = (got == want, u_count == 2)
    elapsed = time.perf_counter() - t0
    ok = all(all(v) for v in results.values()) and elapsed < 1.0
    assert report(5, "modulo8-trace-and-u-count", ok,
                  f"{results} {elapsed:.3f}s")


def test_criterion_6_structural_counts():
    bus_ok = all(len(gen_bus(n).connectors) == 5 * n for n in (1, 2, 3, 8))
    tasks_ok = all(
        len(gen_tasks(n, m).connectors) == 2 * n * (n - 1) * m
        for n, m in ((2, 1), (3, 2), (4, 4), (8, 2)))
    cube_ok = True
    for sysm in (modulo8(), gen_bus(2), gen_tasks(2, 2)):
        mgr = BddManager(variable_order(sysm))
        cube = mgr.cube({
            state_var(a, a.init): True for a in sysm.atoms})
        cube_ok = cube_ok and mgr.node_count(cube) == len(sysm.atoms)
    ok = bus_ok and tasks_ok and cube_ok
    assert report(6, "connector-counts-and-state-cube", ok,
                  f"bus={bus_ok} tasks={tasks_ok} cube={cube_ok}")


def test_criterion_7_linear_bdd_size():
    """Doubling node_count(f_S) must stay within x2.5 on both families.

    The Tasks 2->4 leg measures ~3.05 for every declaration order the
    generator can produce (the function is canonical given the pool and
    the pinned variable order, so the count is forced); the chain then
    settles to ~2.4 and ~2.16.  The leg is asserted as stated and is
    expected to fail; README "Known failing bound" has the sweep numbers.
    """
    counts = {}
    for n in (2, 4, 8, 16):
        counts[("bus", n)] = build(gen_bus(n)).node_counts()["fs_nodes"]
    for n in (2, 4, 8):
        counts[("tasks", n)] = build(gen_tasks(n, 4)).node_counts()["fs_nodes"]
    legs = []
    for fam, chain in (("bus", (2, 4, 8, 16)), ("tasks", (2, 4, 8))):
        for a, b in zip(chain, chain[1:]):
            ratio = counts[(fam, b)] / counts[(fam, a)]
            legs.append((fam, a, b, ratio))
    detail = " ".join(f"{fam}:{a}->{b}={r:.2f}" for fam, a, b, r in legs)
    ok = all(r <= 2.5 for _, _, _, r in legs)
    report(7, "fs-node-count-doubling", ok, detail)
    for fam, a, b, ratio in legs:
        assert ratio <= 2.5, (
            f"{fam} {a}->{b} node ratio {ratio:.2f} exceeds 2.5 "
            f"(counts {counts[(fam, a)]}->{counts[(fam, b)]})")


def test_criterion_8_engine_scaling_trend():
    t0 = time.perf_counter()
    mean = {}
    for example, n, m in (("tasks", 8, 4), ("tasks", 16, 4),
                          ("bus", 8, None), ("bus", 16, None)):
        for engine in ("enum", "symbolic"):
            # the median of three repetitions, so one burst of host load
            # does not move a ratio
            rec = bench(example, n, m, steps=10_000, seed=7,
                        engine=engine, repetitions=3)
            mean[(example, n, engine)] = rec.mean_step_ns
    ratios = {
        "tasks_enum": mean[("tasks", 16, "enum")] / mean[("tasks", 8, "enum")],
        "tasks_symbolic": (mean[("tasks", 16, "symbolic")]
                           / mean[("tasks", 8, "symbolic")]),
        "bus_enum": mean[("bus", 16, "enum")] / mean[("bus", 8, "enum")],
        "bus_symbolic": (mean[("bus", 16, "symbolic")]
                         / mean[("bus", 8, "symbolic")]),
    }
    elapsed = time.perf_counter() - t0
    ok = (ratios["tasks_enum"] >= 3.0
          and ratios["tasks_symbolic"] <= 2.5
          and ratios["bus_enum"] <= 2.5
          and ratios["bus_symbolic"] <= 2.5
          and elapsed < 600.0)
    detail = " ".join(f"{k}={v:.2f}" for k, v in ratios.items())
    assert report(8, "per-step-time-doubling", ok, f"{detail} {elapsed:.0f}s")


def test_criterion_9_bdd_oracle_suite():
    t0 = time.perf_counter()
    names3 = ["a", "b", "c"]
    mgr = BddManager(names3)

    def minterm(i, names):
        n = len(names)
        return mgr.cube({nm: bool((i >> (n - 1 - k)) & 1)
                         for k, nm in enumerate(names)})

    # one BDD per 3-variable boolean function, keyed by truth table
    node_of = {}
    for t in range(256):
        f = mgr.or_all([minterm(i, names3) for i in range(8) if t & (1 << i)])
        assert f not in set(node_of.values())  # canonicity: distinct tables
        node_of[t] = f
    mask = 255
    ops = {"and": lambda x, y: x & y,
           "or": lambda x, y: x | y,
           "xor": lambda x, y: x ^ y,
           "implies": lambda x, y: (~x | y) & mask}
    for t1 in range(256):
        f = node_of[t1]
        for t2 in range(256):
            g = node_of[t2]
            for name, table_op in ops.items():
                assert mgr.apply(name, f, g) == node_of[table_op(t1, t2)]
    # restrict and exists against tables: fixing var k selects the rows
    # whose bit k agrees, then duplicates them over both values
    for t in range(256):
        f = node_of[t]
        for k, nm in enumerate(names3):
            sel = [i for i in range(8) if not (i >> (2 - k)) & 1]
            t_lo = t_hi = 0
            for i in range(8):
                base = i & ~(1 << (2 - k))
                if t & (1 << base):
                    t_lo |= 1 << i
                if t & (1 << (base | (1 << (2 - k)))):
                    t_hi |= 1 << i
            assert mgr.restrict(f, nm, False) == node_of[t_lo]
            assert mgr.restrict(f, nm, True) == node_of[t_hi]
            assert mgr.exists(f, [nm]) == node_of[t_lo | t_hi]
    mgr.audit()

    # 1000 random pairs over 4 variables
    names4 = ["a", "b", "c", "d"]
    mgr4 = BddManager(names4)

    def minterm4(i):
        return mgr4.cube({nm: bool((i >> (3 - k)) & 1)
                          for k, nm in enumerate(names4)})

    node4 = {}

    def build4(t):
        if t not in node4:
            node4[t] = mgr4.or_all(
                [minterm4(i) for i in range(16) if t & (1 << i)])
        return node4[t]

    rng = random.Random(99)
    m16 = (1 << 16) - 1
    for _ in range(1000):
        t1, t2 = rng.getrandbits(16), rng.getrandbits(16)
        f, g = build4(t1), build4(t2)
        assert mgr4.apply("and", f, g) == build4(t1 & t2)
        assert mgr4.apply("or", f, g) == build4(t1 | t2)
        assert mgr4.apply("xor", f, g) == build4(t1 ^ t2)
        assert mgr4.apply("implies", f, g) == build4((~t1 | t2) & m16)
    mgr4.audit()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    assert report(9, "bdd-ops-vs-truth-tables", ok, f"{elapsed:.1f}s")
