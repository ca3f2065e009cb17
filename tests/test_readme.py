"""The README's Python examples run as written, and its tables and
layout match the package."""

import re
import shlex
from pathlib import Path

import yaml

from platoonflow import SimParams
from platoonflow.cli import _SCHEMA, main, params_to_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks, "README has no python blocks"
    namespace: dict[str, object] = {}
    for block in blocks:
        # Leading newlines keep traceback line numbers those of README.
        line = text.count("\n", 0, block.start(1))
        code = compile("\n" * line + block.group(1), str(README), "exec")
        exec(code, namespace)


def test_layout_names_every_module_of_the_package():
    block = re.search(r"^## Layout\n\n```\nsrc/platoonflow/\n(.*?)^```$",
                      README.read_text(), re.M | re.S)
    assert block, "README has no Layout block"
    listed = set(re.findall(r"^  (\S+\.py) ", block.group(1), re.M))
    package = README.parent / "src" / "platoonflow"
    modules = {path.name for path in package.glob("*.py")}
    assert listed == modules - {"__init__.py"}


def test_config_table_gives_every_key_and_its_default():
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]*)` \|",
                      README.read_text(), re.M)
    assert [(section, key) for section, key, _ in rows] == [
        (section, key) for section, schema in _SCHEMA.items()
        for key in schema]
    defaults = params_to_dict(SimParams())
    for section, key, cell in rows:
        # The cell is what a user copies into a config file.
        assert yaml.safe_load(cell) == defaults[section][key], (
            f"{section}.{key}: {cell}")


def test_quick_start_writes_the_files_its_table_lists(tmp_path, monkeypatch):
    quick = README.read_text().partition("## Quick start\n")[2] \
        .partition("\n## ")[0]
    config = re.search(r"^```yaml\n# (\S+)\n(.*?)^```$", quick, re.M | re.S)
    command = re.search(r"^platoonflow (run .*)$", quick, re.M)
    listed = re.findall(r"^\| `(\S+)` +\|", quick, re.M)
    assert config and command and listed
    monkeypatch.chdir(tmp_path)
    Path(config.group(1)).write_text(config.group(2))
    args = shlex.split(command.group(1))
    assert main(args) == 0
    out = Path(args[args.index("--out") + 1])
    assert sorted(path.name for path in out.iterdir()) == sorted(listed)
