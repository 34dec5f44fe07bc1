"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    namespace: dict = {}
    exec(compile(quick_start_block(), "README.md quick start", "exec"), namespace)
    assert namespace["ok"] is True
    assert namespace["period"] == 12
