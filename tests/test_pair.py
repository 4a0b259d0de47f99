"""The statistics of `tools/pair.py` on fixed samples (no benchmark runs)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pair.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("pair", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


pair = load_tool()

# ten rounds of a lower-is-better metric: the copy reads the base within
# 1 %, the slow change reads it 8-12 % higher in every round
BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.99]
COPY = [b * f for b, f in zip(BASE, [1.01, 0.99, 1.00, 1.005, 0.995, 1.01, 0.99, 1.0, 1.002, 0.998])]
SLOW = [b * f for b, f in zip(BASE, [1.10, 1.09, 1.11, 1.10, 1.12, 1.08, 1.10, 1.11, 1.09, 1.10])]


def test_paired_ratios_pair_by_round_and_skip_failed_runs():
    assert pair.paired_ratios([2.0, None, 4.0, 5.0], [3.0, 1.0, None, 10.0]) == [1.5, 2.0]


def test_wins_follow_the_direction_and_ties_count_for_neither():
    ratios = [0.9, 1.0, 1.1, 1.2]
    assert pair.wins(ratios, "lower") == 1
    assert pair.wins(ratios, "higher") == 2


def test_median_interval_reads_the_binomial_order_statistics():
    xs = [float(x) for x in range(10, 0, -1)]
    # P(Binomial(10, 1/2) <= 1) = 11/1024 <= 0.025 < P(<= 2) = 56/1024
    assert pair.median_interval(xs, 0.95) == (2.0, 9.0)
    # P(<= 0) = 1/1024 <= 0.005 < P(<= 1): the range at 99 % and beyond
    assert pair.median_interval(xs, 0.99) == (1.0, 10.0)
    assert pair.median_interval(xs, 1 - 0.05 / 24) == (1.0, 10.0)
    assert pair.median_interval([float(x) for x in range(40)], 0.95) == (13.0, 26.0)
    assert pair.median_interval([1.25] * 6, 0.95) == (1.25, 1.25)


def test_rounds_are_the_fewest_whose_range_holds_three_workloads():
    level = 1 - 0.05 / 24
    assert 2 * 0.5 ** pair.ROUNDS <= 1 - level < 2 * 0.5 ** (pair.ROUNDS - 1)


def test_verdict_needs_the_change_apart_from_base_and_copy():
    assert pair.verdict((1.05, 1.10), (1.02, 1.08), "lower") == "loss"
    assert pair.verdict((1.05, 1.10), (1.02, 1.08), "higher") == "gain"
    assert pair.verdict((0.90, 0.97), (0.93, 0.99), "lower") == "gain"
    assert pair.verdict((0.90, 0.97), (0.93, 0.99), "higher") == "loss"
    # apart from the base, but the copy of the same rounds read as far
    assert pair.verdict((1.05, 1.10), (0.99, 1.04), "lower") == pair.NO_CHANGE
    assert pair.verdict((1.05, 1.10), (0.90, 0.95), "lower") == pair.NO_CHANGE
    assert pair.verdict((0.99, 1.10), (1.02, 1.08), "lower") == pair.NO_CHANGE


def test_compare_reports_a_slowdown_beyond_the_copy():
    # at the level of one of three workloads' 24 intervals
    row = pair.compare({"base": BASE, "change": SLOW, "copy": COPY}, "lower", 1 - 0.05 / 24)
    assert row["verdict"] == "loss" and "aa_half_width" not in row
    assert row["change"]["wins"] == 0 and row["change"]["pairs"] == 10
    assert row["change"]["interval"][0] > 1.0 and 1.08 <= row["change"]["median_ratio"] <= 1.11
    assert row["copy"]["interval"][0] <= 1.0 <= row["copy"]["interval"][1]
    assert row["change_to_copy"]["interval"][0] > 1.0
    same = pair.compare({"base": BASE, "change": COPY, "copy": COPY}, "higher", 1 - 0.05 / 24)
    assert same["verdict"] == pair.NO_CHANGE
    assert same["aa_half_width"] == (same["copy"]["interval"][1] - same["copy"]["interval"][0]) / 2


def test_compare_needs_two_pairs_in_each_arm():
    row = pair.compare({"base": [1.0, 1.0], "change": [1.0, None], "copy": [1.0, 1.0]}, "lower", 0.95)
    assert row == {"better": "lower", "verdict": "not measured"}


def test_six_rounds_balance_the_order_of_every_two_arms():
    for a in pair.ARMS:
        assert sum(order[0] == a for order in pair.ORDERS) == 2
        for b in pair.ARMS:
            if a != b:
                assert sum(order.index(a) < order.index(b) for order in pair.ORDERS) == 3


# the `#` lines of a bus-run (2 cores, CPython 3.11.7), its JSON line cut short
RUN_OUTPUT = """\
# host speed factor per round: median 1.935, min 1.209, max 2.243 (REF_NS 3000000 ns)
# setup_s                                          0.011655 s  (uncorrected 0.006883)
# sym.steps_per_s                              59184.237002 1/s  (uncorrected 105091.574170)
# sym.step_us.p95                                 30.385928 us  (uncorrected 17.055000)
# enum.steps_per_s                             16431.525900 1/s  (uncorrected 29492.076898)
# enum.step_us.p95                                83.989953 us  (uncorrected 46.954000)
# enum.step_us.p50                                55.843207 us  (uncorrected 30.965000)
# check_s                                          0.014671 s  (uncorrected 0.008427)
# peak_rss_mb                                     41.859375 MB  (uncorrected 41.859375)
# fail_rate 0.0 (0 failed of 28007 attempted)
{"correct": true, "attempted": 28007, "failed": 0, "metrics": {"setup_s": {"value": 0.011655112985148677}}}
"""


def test_uncorrected_values_are_read_from_the_hash_lines_and_compared_apart():
    assert pair.uncorrected(RUN_OUTPUT) == {
        "setup_s": 0.006883, "sym.steps_per_s": 105091.57417, "sym.step_us.p95": 17.055,
        "enum.steps_per_s": 29492.076898, "enum.step_us.p95": 46.954, "enum.step_us.p50": 30.965,
        "check_s": 0.008427, "peak_rss_mb": 41.859375}
    # the corrected values read no change, the uncorrected ones a loss
    bench = {"end_to_end": [{"name": "check_s", "better": "lower"}]}
    values = {"bus-run": {"base": {"check_s": BASE}, "change": {"check_s": COPY}, "copy": {"check_s": COPY}}}
    raw = {"bus-run": {"base": {"check_s": BASE}, "change": {"check_s": SLOW}, "copy": {"check_s": COPY}}}
    got = pair.report(bench, values, raw, {"bus-run": {}}, {}, {})["workloads"]["bus-run"]
    assert got["metrics"]["check_s"]["verdict"] == pair.NO_CHANGE
    assert got["uncorrected"]["check_s"]["verdict"] == "loss"
    assert got["uncorrected_values"] == raw["bus-run"]


def test_a_directory_side_is_named_relative_to_the_repository(tmp_path):
    # the output names a tree by its commit, never by where it sat
    root = pair.ROOT
    here = pair.describe(str(root))
    assert here["directory"] == "." and here["commit"] == pair.git(root, "rev-parse", "HEAD")
    assert pair.describe(str(root / "tools"))["directory"] == "tools"
    outside = pair.describe(str(tmp_path))
    assert outside == {"directory": None, "commit": None, "uncommitted": None}
    assert not any(str(root) in str(v) or str(tmp_path) in str(v) for v in (*here.values(), *outside.values()))


def test_ab_imports_a_tree_under_its_own_package_name():
    # `tools/ab.py` times two trees in one process: each tree's package,
    # imported under its own name, has its own modules and runs as the
    # installed one does
    import sys

    import portsync.symbolic
    from portsync.generators import gen_bus

    spec = importlib.util.spec_from_file_location("ab", TOOL.with_name("ab.py"))
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    try:
        pkg = ab.load("portsync_ab_test", TOOL.parents[1] / "src")
        symbolic = sys.modules["portsync_ab_test.symbolic"]
        assert pkg.SymbolicEngine is symbolic.SymbolicEngine is not portsync.symbolic.SymbolicEngine
        system = pkg.parse(ab.models().bus_text(3))
        assert [sorted(a) for a in symbolic.SymbolicEngine(system, seed=1).run(50).interactions] == \
            [sorted(a) for a in portsync.symbolic.SymbolicEngine(gen_bus(3), seed=1).run(50).interactions]
        assert ab.built(symbolic.build, pkg.parse, ab.models().bus_text(3))(1) > 0  # a build's ms
    finally:
        for name in [n for n in sys.modules if n.startswith("portsync_ab_test")]:
            del sys.modules[name]
