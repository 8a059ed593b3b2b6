"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed[:2] == ["1.5", "((0.0, 0.5), (0.5, 1.0))"]
    # the comments next to those two prints show the same text
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert comments[:2] == printed[:2]
