"""The README's library quick start runs as written, so it cannot name an API
the package no longer has."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md (library quick start)", "exec"), scope)
    assert scope["R"].shape == (201, 2)
    # the reflection map in b_plus with the identity in b_minus commutes
    assert scope["rows"].shape == (3, 1) and scope["rows"].max() < 1e-12
