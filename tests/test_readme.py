"""The README's Library example runs as printed."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The first python code block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0],
                      re.DOTALL)
    assert match is not None, "the Library section has no python block"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("StepPlan(")
    assert lines[3].startswith("CertifiedInterval(")
