"""The README's library tour runs as written and gives each result that its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour():
    """The lines of the first python block after the library tour heading."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S)
    assert block, "README has no library tour"
    return block.group(1).splitlines()


def test_library_tour_runs_and_matches_its_comments():
    scope, pending, checked = {}, [], 0
    for line in _tour():
        if "#" not in line:
            pending.append(line)
            continue
        exec("\n".join(pending), scope)
        pending = []
        statement, comment = (part.strip() for part in line.split("#", 1))
        if comment.startswith("equals "):
            exec(statement, scope)
            got = scope[statement.split("=", 1)[0].strip()]
            want = eval(comment[len("equals "):], scope)
        elif comment.startswith('"'):
            got, want = eval(statement, scope), ast.literal_eval(comment)
        else:
            got, want = str(eval(statement, scope)), comment
        assert got == want, line
        checked += 1
    exec("\n".join(pending), scope)
    assert checked == 4
