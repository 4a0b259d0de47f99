"""Command line entry points and exit codes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import portsync

from portsync.bench import CSV_HEADER
from portsync.cli import (
    EXIT_DEADLOCK,
    EXIT_DIAGNOSTICS,
    EXIT_DIVERGENCE,
    EXIT_OK,
    main,
)
from portsync.dsl import load, save
from portsync.generators import modulo8

from test_dsl import TWICE


@pytest.fixture
def model_file(tmp_path, mod8):
    path = tmp_path / "m.bip-lite"
    save(mod8, str(path))
    return str(path)


@pytest.fixture
def deadlock_file(tmp_path, deadlock_system):
    path = tmp_path / "dead.bip-lite"
    save(deadlock_system, str(path))
    return str(path)


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_DIAGNOSTICS, EXIT_DEADLOCK, EXIT_DIVERGENCE) == (0, 1, 2, 3)


class TestRun:
    def test_enum(self, model_file, capsys):
        assert main(["run", model_file, "--engine", "enum",
                     "--steps", "8", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "8" in out

    def test_symbolic_with_trace(self, model_file, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["run", model_file, "--engine", "symbolic",
                     "--steps", "8", "--seed", "0",
                     "--trace", str(trace)]) == EXIT_OK
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,interaction,state"
        assert len(lines) == 9
        assert lines[1] == "1,p,l2 l3 l5"

    def test_deadlock_exit(self, deadlock_file):
        assert main(["run", deadlock_file, "--engine", "enum",
                     "--steps", "10", "--seed", "0"]) == EXIT_DEADLOCK

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.bip-lite")
        assert main(["run", missing, "--engine", "enum",
                     "--steps", "1", "--seed", "0"]) == EXIT_DIAGNOSTICS

    def test_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.bip-lite"
        path.write_text("system broken {")
        assert main(["run", str(path), "--engine", "enum",
                     "--steps", "1", "--seed", "0"]) == EXIT_DIAGNOSTICS
        assert capsys.readouterr().err

    def test_validation_error_names_the_transition_line(self, tmp_path, capsys):
        path = tmp_path / "bad.bip-lite"
        path.write_text("system x {\n  atom A {\n    ports p;\n    states a init;\n"
                        "    trans a -[ p ]-> c;\n  }\n  connector k = p;\n}\n")
        assert main(["run", str(path), "--steps", "1"]) == EXIT_DIAGNOSTICS
        assert f"{path}:5:5: atom A trans #1 a->c: endpoint not a declared state" in capsys.readouterr().err

    def test_transitions_with_the_same_endpoints_name_their_own_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.bip-lite"
        path.write_text("system x {\n  atom A {\n    ports p, q;\n    states a init, b;\n"
                        "    trans a -[ z ]-> b;\n    trans a -[ q ]-> b;\n    trans b -[ y ]-> a;\n  }\n"
                        "  connector k = p;\n}\n")
        assert main(["check", str(path)]) == EXIT_DIAGNOSTICS
        err = capsys.readouterr().err
        assert f"{path}:5:5: atom A trans #1 a->b: label uses foreign ports ['z']" in err
        assert f"{path}:7:5: atom A trans #3 b->a: label uses foreign ports ['y']" in err
        assert "trans #2" not in err

    def test_a_port_named_twice_in_a_connector_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "twice.bip-lite"
        path.write_text(TWICE)
        assert main(["check", str(path)]) == EXIT_DIAGNOSTICS
        assert f"{path}:12:3: connector x: port 'b' named more than once [linear-term]" in capsys.readouterr().err


def test_module_entry_point_exits_with_the_code(deadlock_file, tmp_path):
    # `python -m portsync.cli` goes through `console_main`, which exits with
    # `main`'s code: 2 on a deadlock, 1 on a syntax error
    env = {**os.environ, "PYTHONPATH": str(Path(portsync.__file__).resolve().parents[1])}
    bad = tmp_path / "bad.bip-lite"
    bad.write_text("system broken {")
    for args, code in ((["run", deadlock_file, "--steps", "10"], EXIT_DEADLOCK),
                       (["check", str(bad)], EXIT_DIAGNOSTICS)):
        done = subprocess.run([sys.executable, "-m", "portsync.cli", *args], env=env, capture_output=True, text=True)
        assert done.returncode == code, done.stderr


class TestCheck:
    def test_equivalent_model(self, model_file, capsys):
        assert main(["check", model_file, "--bound", "100"]) == EXIT_OK
        assert "equivalent" in capsys.readouterr().out


def test_zero_component_system_deadlocks_and_checks(tmp_path, capsys):
    # a system with no atom: both engines deadlock at the first step and
    # its one state is equivalent
    path = tmp_path / "e.bip-lite"
    path.write_text("system e { }\n")
    for engine in ("enum", "symbolic"):
        assert main(["run", str(path), "--engine", engine, "--steps", "5", "--seed", "0"]) == EXIT_DEADLOCK
    capsys.readouterr()
    assert main(["check", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "equivalent, 1 states"


class TestBench:
    def test_both_engines_csv(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["bench", "bus", "--n", "1", "--steps", "20",
                     "--seed", "0", "--reps", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # enum row + symbolic row
        engines = {line.split(",")[1] for line in lines[1:]}
        assert engines == {"enum", "symbolic"}

    def test_tasks_needs_m(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(["bench", "tasks", "--n", "2", "--m", "1",
                     "--steps", "10", "--seed", "0", "--reps", "1",
                     "--engine", "enum", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().strip().splitlines()[1].split(",")[3] == "1"


class TestStatsAndGen:
    def test_stats_prints_node_counts(self, model_file, capsys):
        assert main(["stats", model_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "system modulo8: 3 atoms, 6 ports, 4 pool interactions",
            "fb_nodes=21", "fc_nodes=9", "fs_nodes=23", "fp_nodes=26"]

    def test_stats_counts_a_pool_too_large_to_list(self, tmp_path, capsys):
        # a broadcast c = s' r0 ... r39: a pool of 2^40, counted from f_C
        k = 40
        atoms = [f"atom R{i} {{ ports r{i}; states a init, b; trans a -[ r{i} ]-> b; }}" for i in range(k)]
        text = "\n".join(["system broadcast {", "atom S { ports s; states a init; trans a -[ s ]-> a; }", *atoms,
                           f"connector c = s' {' '.join(f'r{i}' for i in range(k))};", "}"])
        path = tmp_path / "broadcast.bip-lite"
        path.write_text(text)
        start = time.process_time()
        assert main(["stats", str(path)]) == EXIT_OK
        assert time.process_time() - start < 1.0
        assert capsys.readouterr().out.splitlines()[0] == "system broadcast: 41 atoms, 41 ports, 1099511627776 pool interactions"

    def test_gen_bus_then_run(self, tmp_path):
        path = tmp_path / "bus.bip-lite"
        assert main(["gen", "bus", "--n", "2", "--out", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--engine", "enum",
                     "--steps", "5", "--seed", "1"]) == EXIT_OK

    def test_gen_random_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.bip-lite", tmp_path / "b.bip-lite"
        assert main(["gen", "random", "--seed", "4", "--out", str(p1)]) == EXIT_OK
        assert main(["gen", "random", "--seed", "4", "--out", str(p2)]) == EXIT_OK
        assert p1.read_text() == p2.read_text()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_DIAGNOSTICS

    def test_bad_engine_name(self, model_file, capsys):
        assert main(["run", model_file, "--engine", "quantum",
                     "--steps", "1", "--seed", "0"]) == EXIT_DIAGNOSTICS

    def test_zero_steps(self, model_file):
        assert main(["bench", "bus", "--n", "1", "--steps", "0",
                     "--seed", "0", "--out", "/dev/null"]) == EXIT_DIAGNOSTICS

    def test_negative_run_steps(self, model_file, capsys):
        assert main(["run", model_file, "--steps", "-3"]) == EXIT_DIAGNOSTICS
        captured = capsys.readouterr()
        assert "usage: portsync run" in captured.err
        assert "argument --steps: must be at least 0, not -3" in captured.err
        assert "completed" not in captured.out

    @pytest.mark.parametrize("bound", ["0", "-2"])
    def test_check_bound_below_one(self, model_file, capsys, bound):
        assert main(["check", model_file, "--bound", bound]) == EXIT_DIAGNOSTICS
        captured = capsys.readouterr()
        assert "usage: portsync check" in captured.err
        assert f"argument --bound: must be at least 1, not {bound}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value, least", [
        ("--max-atoms", "0", 1), ("--max-atoms", "-3", 1), ("--max-states", "0", 1),
        ("--max-ports", "0", 1), ("--max-depth", "-1", 0), ("--seed", "-1", 0)])
    def test_gen_random_bound_below_least(self, tmp_path, capsys, flag, value, least):
        out = tmp_path / "r.bip-lite"
        assert main(["gen", "random", flag, value, "--out", str(out)]) == EXIT_DIAGNOSTICS
        captured = capsys.readouterr()
        assert "usage: portsync gen" in captured.err
        assert f"argument {flag}: must be at least {least}, not {value}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_gen_random_least_bounds(self, tmp_path):
        out = tmp_path / "r.bip-lite"
        assert main(["gen", "random", "--max-atoms", "1", "--max-states", "1", "--max-ports", "1",
                     "--max-depth", "0", "--out", str(out)]) == EXIT_OK
        assert load(str(out)).atoms


class TestUnwritableOutput:
    """A file that cannot be written is a diagnostic, not a traceback."""

    def _diagnosed(self, argv, capsys):
        assert main(argv) == EXIT_DIAGNOSTICS
        assert capsys.readouterr().err.startswith("error: ")

    def test_gen_out(self, tmp_path, capsys):
        self._diagnosed(["gen", "bus", "--n", "1",
                         "--out", str(tmp_path / "no-dir" / "x.bip-lite")], capsys)

    def test_bench_out(self, tmp_path, capsys):
        self._diagnosed(["bench", "bus", "--n", "1", "--steps", "5", "--reps", "1",
                         "--engine", "enum", "--out", str(tmp_path / "no-dir" / "x.csv")], capsys)

    def test_run_trace(self, model_file, tmp_path, capsys):
        self._diagnosed(["run", model_file, "--steps", "2",
                         "--trace", str(tmp_path / "no-dir" / "x.csv")], capsys)
