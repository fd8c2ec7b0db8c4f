"""The README's code runs as written: the library quick tour and the CLI worked example."""

import re
import shlex
from pathlib import Path

from optensor.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
HEREDOC = re.compile(r"^([^\n]*) <<'EOF'\n(.*?)^EOF\n", re.M | re.S)


def blocks(lang: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_quick_tour_runs():
    (tour,) = blocks("python")
    exec(compile(tour, str(README), "exec"), {})


def test_worked_example_prints_probability_one(tmp_path, monkeypatch, capsys):
    (example,) = [block for block in blocks("sh") if HEREDOC.search(block)]
    monkeypatch.chdir(tmp_path)
    end = 0
    for match in HEREDOC.finditer(example):
        assert not example[end : match.start()].strip()
        command, body = match.groups()
        if command.startswith("cat > "):
            Path(command.removeprefix("cat > ")).write_text(body)
        else:
            assert command == "python3 -"
            exec(compile(body, str(README), "exec"), {})
        end = match.end()
    program, *argv = shlex.split(example[end:])
    assert program == "optensor"
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "probability_tensor: 1.000000000000" in lines
    assert "probability_foliation: 1.000000000000" in lines
