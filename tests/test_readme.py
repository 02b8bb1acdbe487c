"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} quickstart", "exec"), {})
    converged, loss = capsys.readouterr().out.split()[:2]
    assert converged == "True" and float(loss) > 0
