"""The README's quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("Quick start:"):]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
