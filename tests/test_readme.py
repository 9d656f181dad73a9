"""The README's Python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_python_examples_print_their_comments():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 2
    expected = []
    namespace = {}
    out = io.StringIO()
    for block in blocks:  # later blocks reuse names bound by earlier ones
        for line in block.splitlines():
            if line.startswith("print(") and "#" in line:
                expected.append(line.rsplit("#", 1)[1].strip())
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == expected
    assert expected == ["4", "1.0", "4 [0 0 0 0 0 0 0 0]"]
