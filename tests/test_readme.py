"""README's library quick start, run as written."""

import math
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1]
    return block.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs(capsys):
    exec(compile(readme_quick_start(), "README quick start", "exec"), {})
    iterations, distance = capsys.readouterr().out.split()
    assert int(iterations) >= 1
    assert math.isfinite(float(distance)) and float(distance) > 0.0
