"""README snippets stay in step with the constructors they show.

Every ``python`` block of README.md is parsed, not run.  Each call to a
callable exported by the public packages must pass only keywords that the
callable's signature accepts, so a removed or renamed parameter cannot
linger in the documentation.  Callables taking ``**kwargs`` are skipped.
Every ``from repro... import name`` must resolve, so a removed name cannot
linger either.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

PACKAGES = (
    "repro",
    "repro.shard",
    "repro.service",
    "repro.resilience",
    "repro.heal",
    "repro.loadgen",
    "repro.approx",
)


def _exported_parameters():
    """``name -> parameter names`` for every exported callable without ``**kwargs``."""
    out = {}
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if name in out or not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
                continue
            out[name] = {p.name for p in params}
    return out


def _python_blocks():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README.md has no python blocks"
    return blocks


def test_readme_imports_resolve():
    checked = 0
    missing = []
    for number, block in enumerate(_python_blocks(), 1):
        for node in ast.walk(ast.parse(block)):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module != "repro" and not node.module.startswith("repro."):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked += 1
                if not hasattr(module, alias.name):
                    missing.append(f"block {number}: from {node.module} import {alias.name}")
    assert checked, "no README block imports from repro"
    assert not missing, f"README imports names that do not exist: {missing}"


def test_readme_calls_use_only_accepted_keywords():
    accepted = _exported_parameters()
    blocks = _python_blocks()
    checked = 0
    unknown = []
    for number, block in enumerate(blocks, 1):
        for node in ast.walk(ast.parse(block)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            params = accepted.get(node.func.id)
            if params is None:
                continue
            checked += 1
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in params:
                    unknown.append(f"block {number}: {node.func.id}({keyword.arg}=...)")
    assert checked, "no README call matched an exported callable"
    assert not unknown, f"README passes keywords the signatures do not accept: {unknown}"
