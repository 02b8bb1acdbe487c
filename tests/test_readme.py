"""The README's library quickstart runs as written, its config block
matches the config schema, every code name it cites exists, and it
documents every check of ``analyze``."""

import ast
import importlib
import re
from pathlib import Path

from advisc.cli import DERIVED_CSVS
from advisc.config import _SECTIONS, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "advisc"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    status, loss = lines[0].split()
    assert status == "ok" and float(loss) > 0
    assert lines[-1] == "ok True"


def test_config_block_names_every_key_of_the_schema():
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    parse_config_text(block)
    named, section = {}, None
    for line in block.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        key = re.match(r"#?\s*(\w+)\s*=", line)
        if header:
            section = header.group(1)
            named[section] = set()
        elif key:
            named[section].add(key.group(1))
    assert named == {section: set(keys) for section, keys in _SECTIONS.items()}


def test_every_code_name_the_readme_cites_exists():
    # A backticked `module.name`, module being a file of the package (not
    # `module.py`), names an attribute of that module.
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    cited = {(module, name)
             for span in re.findall(r"`([^`\n]+)`", README.read_text())
             for module, name in re.findall(r"\b(\w+)\.(\w+)", span)
             if module in modules and name != "py"}
    assert len(cited) > 10
    missing = sorted(f"{module}.{name}" for module, name in cited
                     if not hasattr(importlib.import_module(f"advisc.{module}"), name))
    assert not missing, f"README cites names that do not exist: {missing}"


def test_every_analyze_check_name_is_documented():
    # The literal first argument of each check(...) and check_equal(...) call
    # in cli.py, and each derived CSV's check, appears backticked in README.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {call.args[0].value for call in ast.walk(tree)
             if isinstance(call, ast.Call) and getattr(call.func, "id", None)
             in ("check", "check_equal")
             and isinstance(call.args[0], ast.Constant)}
    names |= {check for _, check in DERIVED_CSVS.values()}
    assert len(names) > 10
    readme = README.read_text()
    assert sorted(name for name in names if f"`{name}`" not in readme) == []
