"""Defaults of `portsync` options that the main CLI tests do not cover:
`bench` records the size of the model it ran, and the library calls
behind it default to one processor as the CLI does."""

from portsync.bench import bench, make_system
from portsync.cli import EXIT_OK, main


def test_bench_tasks_without_m_records_one_processor(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(["bench", "tasks", "--n", "2", "--steps", "10", "--reps", "1",
                 "--engine", "enum", "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("tasks n=2 m=1 enum: ")
    assert out.read_text().splitlines()[1].split(",")[:4] == ["tasks", "enum", "2", "1"]


def test_library_calls_default_to_one_processor():
    assert make_system("tasks", 2).name == "tasks2x1"
    rec = bench("tasks", 2, steps=10, seed=0, engine="enum")
    assert (rec.n, rec.m, rec.steps) == (2, 1, 10)

