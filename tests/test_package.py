"""The package surface: the four re-exported names and the README's
library example that uses them."""

import re
from pathlib import Path

import portsync
from portsync import dsl, enumerative, equivalence, symbolic
from portsync.generators import gen_bus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_reexports_the_four_entry_points():
    assert portsync.__all__ == ["EnumEngine", "SymbolicEngine", "check_equivalence", "parse"]
    assert portsync.EnumEngine is enumerative.EnumEngine
    assert portsync.SymbolicEngine is symbolic.SymbolicEngine
    assert portsync.check_equivalence is equivalence.check_equivalence
    assert portsync.parse is dsl.parse


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    dsl.save(gen_bus(4), "bus4.bip-lite")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "1000 False\nequivalent, 10000 states (truncated)\n"
