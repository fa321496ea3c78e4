"""The README's library example runs against the code as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# 10x10 unit cells with one occupied 2x2 block off the corner
ARENA = "".join("0000110000\n" if y in (4, 5) else "0" * 10 + "\n"
                for y in range(10))


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arena.grid").write_text(ARENA)
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["1", "2", "4"]
