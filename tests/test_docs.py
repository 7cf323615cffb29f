"""The README's library quick start runs as written, so it cannot name an API
the package no longer has, and its config example parses in every mode, so it
names no key the reader refuses."""

import json
import re
from pathlib import Path

import pytest

from vsolitons.cli import MODES, parse_run_config
from vsolitons.errors import ConfigError

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md (library quick start)", "exec"), scope)
    assert scope["R"].shape == (201, 2)
    # the reflection map in b_plus with the identity in b_minus commutes
    assert scope["rows"].shape == (3, 1) and scope["rows"].max() < 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_config_example_parses_in_every_mode(mode):
    section = README.read_text(encoding="utf-8").split("### Configuration document", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    doc = json.loads(re.sub(r"//.*", "", block))
    name = "permutation"
    if mode == "transfer":
        # transfer mode runs the transfer suite: any other suite.name is refused,
        # and so are the sizes it does not read
        with pytest.raises(ConfigError, match="^suite.name: transfer mode runs 'transfer'"):
            parse_run_config(dict(doc, mode=mode))
        del doc["suite"]["name"]
        for key in ("n", "N"):
            with pytest.raises(ConfigError, match=f"^suite.{key}: the transfer suite does not"):
                parse_run_config(dict(doc, mode=mode))
            del doc["suite"][key]
        name = "transfer"
    cfg = parse_run_config(dict(doc, mode=mode))
    assert cfg.suite_name == name and cfg.data.N == 2
