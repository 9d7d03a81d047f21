"""The benchmark in perfbench/ reaches into the package by name; every such name must exist.

spans.py wraps package functions by (module, attribute), and workloads.py
binds package names at import and calls others by attribute.  A refactor that
deletes or renames one of them should fail here, not in a benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = load("spans", monkeypatch)
    for home in spans.MODULES:
        importlib.import_module(f"quditcycle.{home}")
    missing = [
        f"{home}.{attr}"
        for home, attr, _ in spans.SPANS.values()
        if not hasattr(importlib.import_module(f"quditcycle.{home}"), attr)
    ]
    assert not missing


def test_every_package_name_the_workloads_use_resolves(monkeypatch):
    workloads = load("workloads", monkeypatch)  # binds smp.segments_from_json, protocol.theory_state, ... here
    missing = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(workloads, node.value.id, None)
            home = getattr(owner, "__module__", None) or getattr(owner, "__name__", "")
            if isinstance(home, str) and home.startswith("quditcycle") and not hasattr(owner, node.attr):
                missing.add(f"{node.value.id}.{node.attr}")
    assert not missing
