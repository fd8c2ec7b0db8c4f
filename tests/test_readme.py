"""The README's code runs as written: the library quick tour, the CLI worked
example and the circuit DSL example."""

import re
import shlex
from pathlib import Path

from optensor import parse_circuit
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


def test_dsl_example_parses_with_and_without_spaces_between_operations():
    section = README.read_text(encoding="utf-8").split("## File formats\n", 1)[1]
    (example,) = re.findall(r"^```\n(.*?)^```", section.split("\n## ", 1)[0], re.M | re.S)
    packed = re.sub(r"\}\s+", "}", example.strip())
    assert packed != example.strip()
    ops = parse_circuit(example).ops
    assert len(ops) == 6 and parse_circuit(packed).ops == ops
