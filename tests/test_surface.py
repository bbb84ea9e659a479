"""The public surface has no stale names: a deletion must take its exports along."""

import ast
import importlib
import inspect

import poisoncert

MODULES = ("attacks", "certify", "cli", "data", "defense", "maxoracle", "model", "sdp")


def test_every_name_in_all_resolves():
    missing = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in importlib.import_module(f"poisoncert.{name}").__all__
        if not hasattr(importlib.import_module(f"poisoncert.{name}"), attr)
    ]
    assert not missing, missing


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(poisoncert))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    stray = [
        f"{module}.{name}"
        for module, name in imported
        if name not in importlib.import_module(f"poisoncert.{module}").__all__
    ]
    assert not stray, stray
