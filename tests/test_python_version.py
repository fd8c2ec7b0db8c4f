"""Every Python file parses under the oldest version ``pyproject.toml`` declares.

``requires-python = ">=3.10"``: this checks the grammar only, on any newer
interpreter, so syntax from a later version (``except*``, PEP 695 type
parameters, ``type`` aliases) fails here before it reaches a 3.10 install.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_every_file_parses_as_the_oldest_supported_python():
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
