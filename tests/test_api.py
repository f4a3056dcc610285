"""The documented surface of the package: its exported names and the
README's library example."""

import contextlib
import io
import re
from pathlib import Path

import quiverstokes

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in quiverstokes.__all__
               if not hasattr(quiverstokes, name)]
    assert not missing
    assert len(set(quiverstokes.__all__)) == len(quiverstokes.__all__)


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue()
    assert "-s1*s2" in printed and "braid" in printed
