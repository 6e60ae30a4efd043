"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    exec(compile(code, f"{README}:Library use", "exec"), {})
