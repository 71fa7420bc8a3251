"""The public API as the README shows it and as `qeraser.__all__` declares it."""

import re
from pathlib import Path

import qeraser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_sketch_runs():
    """The README's API sketch is a program, so it cannot show removed API."""
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## API sketch\n\n```python\n(.*?)```", text, re.DOTALL)
    assert sketch is not None
    exec(compile(sketch.group(1), "README.md (API sketch)", "exec"), {})


def test_every_exported_name_resolves():
    assert len(set(qeraser.__all__)) == len(qeraser.__all__)
    for name in qeraser.__all__:
        assert getattr(qeraser, name) is not None, name
