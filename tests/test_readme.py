"""The README's code runs against the current API."""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import typing
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


def test_every_annotation_resolves():
    # Annotations are strings (postponed evaluation), so a name a module
    # forgot to import fails only when something resolves them.
    for info in pkgutil.iter_modules(katzbounds.__path__):
        module = importlib.import_module(f"katzbounds.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                typing.get_type_hints(obj)
                members = [inspect.unwrap(getattr(m, "fget", m))
                           for m in vars(obj).values()]
                for member in members:
                    if inspect.isfunction(member):
                        typing.get_type_hints(member)
            elif inspect.isfunction(obj):
                typing.get_type_hints(obj)
