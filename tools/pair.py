"""Paired comparison of two trees on the benchmark, with its own noise floor.

Run from the repository root:

    python tools/pair.py BASE CHANGE [--workload NAME ...]

BASE and CHANGE are each a directory or a git revision of this
repository.  Each side is copied into a temporary directory with a
random name: a directory by copying its files, a revision by `git
archive`.  The base is copied twice, so a third arm, the copy, runs the
base's code from another directory.  The output names each side by the
commit it resolves to, and a directory also by its path relative to the
repository root (none outside it) and by whether `git status` lists
changes in it.

Each of `ROUNDS` rounds has one seed, its number (1 to 10), and runs
`perfbench/run.py --trace 0` once per workload in each arm, in an order
that cycles through the six orders of the three arms.  Each process gets
an environment variable of random length, so that layout effects of the
environment and the directory (Mytkowicz et al., ASPLOS 2009) become
variance that the copy arm sees too.

For each end-to-end metric of `BENCHMARK.json`, the last line of each
run gives one value, corrected for the host's speed by perfbench, and
its `#` line gives the uncorrected value; the two are compared apart,
each the same way (under "metrics" and "uncorrected").  Change over
base and copy over base are compared by the paired ratios of the same
round: their median, the rounds in which the arm is better (by the
metric's `better` direction; ties count for neither), and a
distribution-free interval of the median, read from the sorted ratios
(the binomial order-statistic interval; a bootstrap of ten pairs covers
less than it claims, see `median_interval`).  The k
intervals of one arm hold together at 95 %: each is read at
1 - 0.05 / k, k being the metrics times the workloads (Bonferroni), so
that the same code run against itself leaves x1.00 in each of the
change's intervals at once at least 19 times in 20.  With 10 rounds and
the 24 intervals of three workloads, an interval is the range of the
ratios, and it excludes x1.00 only where every round moved the same
way.  The verdict reads "gain" or "loss" only where the change reads
apart, on the same side, both from the base and from the copy of the
same rounds: its interval against the base and the interval of its
ratios to the copy both exclude x1.00.  Otherwise it reads "no change
at this resolution" and gives the half-width of the copy's interval
against the base (the A/A interval).  Asking instead for the change's
interval to clear the A/A interval, two ranges of 10 ratios, missed a
2 us busy wait in each symbolic step in one of two bus-run tests,
although every round read it slower (change [0.758, 0.956] against A/A
[0.921, 1.066] on `sym.steps_per_s`).

It prints one JSON object on standard output and its progress on
standard error.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the fewest rounds whose range of ratios holds the median at the level
# of three workloads' 24 intervals: 2 * 0.5 ** 10 <= 0.05 / 24
ROUNDS = 10
ARMS = ("base", "change", "copy")
ORDERS = list(itertools.permutations(ARMS))
LEVEL = 0.95  # of all the intervals of one arm together
PAD_MAX = 4096  # characters of the environment pad
NO_CHANGE = "no change at this resolution"
# a perfbench `#` line that gives a metric's value without the host-speed correction
UNCORRECTED = re.compile(r"^# (\S+) +\S+ \S+  \(uncorrected (\S+)\)$", re.MULTILINE)


# -- statistics -------------------------------------------------------


def paired_ratios(base: list[float], arm: list[float]) -> list[float]:
    """arm[i] / base[i] for each round in which both ran."""
    return [a / b for b, a in zip(base, arm) if a is not None and b is not None and b != 0]


def wins(ratios: list[float], better: str) -> int:
    """The rounds in which the arm reads better than the base."""
    return sum(r < 1 if better == "lower" else r > 1 for r in ratios)


def median_interval(ratios: list[float], level: float) -> tuple[float, float]:
    """The interval [x(k), x(n + 1 - k)] of the sorted ratios for the
    largest k whose tails P(Binomial(n, 1/2) < k) hold at most
    (1 - level) / 2 each: it covers the median of the ratios' law with
    probability at least `level`, whatever the law (k = 1, the range,
    where n is too small for `level`).  For the median of 10 normal
    ratios, a percentile bootstrap (2,000 resamples) covered 93.5 % at a
    nominal 95 % and 98.5 % at a nominal 99.8 % in 400 simulated samples,
    and 95.3 % and 99.3 % with its percentiles expanded for small
    samples (Hesterberg, The American Statistician, 2015); this interval
    covers 97.9 % and 99.8 % exactly."""
    xs, n = sorted(ratios), len(ratios)
    k, tail = 1, 0.5 ** n  # tail: P(Binomial(n, 1/2) <= k - 1)
    while k < (n + 1) // 2 and tail + math.comb(n, k) * 0.5 ** n <= (1 - level) / 2:
        tail += math.comb(n, k) * 0.5 ** n
        k += 1
    return xs[k - 1], xs[n - k]


def summary(ratios: list[float], better: str, level: float) -> dict:
    """The paired median ratio, the wins and the interval of one arm."""
    lo, hi = median_interval(ratios, level)
    return {"median_ratio": statistics.median(ratios), "wins": wins(ratios, better),
            "pairs": len(ratios), "interval": [lo, hi]}


def verdict(to_base: tuple[float, float], to_copy: tuple[float, float], better: str) -> str:
    """"gain" or "loss" where the change's intervals against the base and
    against the copy both exclude 1 on the same side; else `NO_CHANGE`."""
    if max(to_base[1], to_copy[1]) < 1:
        return "gain" if better == "lower" else "loss"
    if min(to_base[0], to_copy[0]) > 1:
        return "loss" if better == "lower" else "gain"
    return NO_CHANGE


def compare(values: dict[str, list[float]], better: str, level: float) -> dict:
    """The change and the copy against the base, and the change against
    the copy, for one metric whose per-round values each arm lists in
    `values`, with intervals at `level`; "not measured" where a
    comparison has fewer than two pairs."""
    ratios = {"change": paired_ratios(values["base"], values["change"]),
              "copy": paired_ratios(values["base"], values["copy"]),
              "change_to_copy": paired_ratios(values["copy"], values["change"])}
    if min(map(len, ratios.values())) < 2:
        return {"better": better, "verdict": "not measured"}
    row = {"better": better, **{key: summary(r, better, level) for key, r in ratios.items()}}
    row["verdict"] = verdict(tuple(row["change"]["interval"]), tuple(row["change_to_copy"]["interval"]), better)
    if row["verdict"] == NO_CHANGE:
        lo, hi = row["copy"]["interval"]
        row["aa_half_width"] = (hi - lo) / 2
    return row


# -- runs -------------------------------------------------------------


def git(where: Path | str, *args: str) -> str | None:
    """The output of `git -C where args`, or None if git fails there."""
    done = subprocess.run(["git", "-C", str(where), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def describe(spec: str) -> dict:
    """The tree `spec` names: a revision by its commit; a directory by its
    path relative to the repository root (None outside it, so that no
    output records where a tree sat), the commit it has checked out (None
    outside git) and whether `git status` lists changes in it."""
    if not Path(spec).is_dir():
        return {"revision": spec, "commit": git(ROOT, "rev-parse", "--verify", "--quiet", spec + "^{commit}")}
    where = Path(spec).resolve()
    commit = git(spec, "rev-parse", "HEAD")
    return {"directory": where.relative_to(ROOT).as_posix() if where.is_relative_to(ROOT) else None,
            "commit": commit, "uncommitted": None if commit is None else git(spec, "status", "--porcelain") != ""}


def materialize(spec: str, dest: Path) -> None:
    """Copy the tree `spec`, a directory or a git revision, into `dest`."""
    if Path(spec).is_dir():
        shutil.copytree(spec, dest, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".perfbench", ".pytest_cache", ".hypothesis"))
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", spec],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def uncorrected(stdout: str) -> dict[str, float]:
    """Per metric, the uncorrected value that a benchmark run's `#` lines give."""
    return {name: float(value) for name, value in UNCORRECTED.findall(stdout)}


def run_once(tree: Path, workload: str, seed: int, seconds: float, rng: random.Random) -> dict | None:
    """The last-line JSON of one benchmark run, with its `#` lines'
    uncorrected values under "uncorrected", or None if it failed."""
    env = dict(os.environ, PAIR_PAD="x" * rng.randrange(PAD_MAX))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or result is None or not result["correct"]:
        print(f"pair: {' '.join(cmd)} in {tree} failed:\n{done.stderr}", file=sys.stderr)
        return None
    return result | {"uncorrected": uncorrected(done.stdout)}


def measure(bench: dict, trees: dict[str, Path], workloads: list[str]) -> tuple[dict, dict, dict]:
    """Per workload, arm and end-to-end metric, the value of each round
    (None where the run failed), corrected and uncorrected; and per
    workload and arm, the failed runs."""
    rng = random.Random()
    names = [m["name"] for m in bench["end_to_end"]]
    values = {w: {arm: {m: [] for m in names} for arm in ARMS} for w in workloads}
    raw = {w: {arm: {m: [] for m in names} for arm in ARMS} for w in workloads}
    failed = {w: dict.fromkeys(ARMS, 0) for w in workloads}
    for r in range(ROUNDS):
        for w in workloads:
            for arm in ORDERS[r % len(ORDERS)]:
                print(f"pair: round {r + 1}/{ROUNDS} {w} {arm}", file=sys.stderr)
                result = run_once(trees[arm], w, r + 1, bench["run_seconds"], rng)
                failed[w][arm] += result is None
                for m in names:
                    metric = result and result["metrics"].get(m)
                    values[w][arm][m].append(metric["value"] if metric else None)
                    raw[w][arm][m].append(result and result["uncorrected"].get(m))
    return values, raw, failed


def report(bench: dict, values: dict, raw: dict, failed: dict, base: dict, change: dict) -> dict:
    """The comparison of every workload's metrics, corrected and
    uncorrected, each set's intervals holding together at `LEVEL`."""
    level = 1 - (1 - LEVEL) / (len(values) * len(bench["end_to_end"]))

    def rows(arms: dict) -> dict:
        return {m["name"]: compare({arm: arms[arm][m["name"]] for arm in ARMS}, m["better"], level)
                for m in bench["end_to_end"]}

    workloads = {w: {"failed_runs": failed[w], "metrics": rows(values[w]), "uncorrected": rows(raw[w]),
                     "values": values[w], "uncorrected_values": raw[w]} for w in values}
    return {"base": base, "change": change, "rounds": ROUNDS, "seeds": list(range(1, ROUNDS + 1)),
            "intervals": {"family_level": LEVEL, "interval_level": level},
            "machine": {"cpus": os.cpu_count(), "processor": platform.processor() or platform.machine(),
                        "python": platform.python_version()},
            "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="a directory or a git revision")
    ap.add_argument("change", help="a directory or a git revision")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                    help="a workload to run (repeatable; default: every workload)")
    args = ap.parse_args(argv)
    sides = [describe(spec) for spec in (args.base, args.change)]
    for side in sides:
        if "revision" in side and side["commit"] is None:
            ap.error(f"{side['revision']} is neither a directory nor a git revision")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory(prefix="pair-") as top:
        trees = {}
        for arm, spec in zip(ARMS, (args.base, args.change, args.base)):
            trees[arm] = Path(tempfile.mkdtemp(dir=top))
            materialize(spec, trees[arm])
        values, raw, failed = measure(bench, trees, workloads)
    print(json.dumps(report(bench, values, raw, failed, *sides), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
