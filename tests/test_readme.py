"""The README's code runs against the current API."""
from __future__ import annotations

import re
from pathlib import Path

import katzbounds

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_every_export_resolves():
    missing = [name for name in katzbounds.__all__
               if not hasattr(katzbounds, name)]
    assert not missing
