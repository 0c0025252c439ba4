"""Every name a ``mixanchor`` module exports through ``__all__``, every
name the benchmark's layer tracer wraps, and every ``mixanchor`` name the
demos import, resolves."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mixanchor

MODULES = ["mixanchor"] + [
    f"mixanchor.{info.name}" for info in pkgutil.iter_modules(mixanchor.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _traced_names():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [name for names in spans.WRAPPED.values() for name in names]


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    # the benchmark's layer tracer wraps each layer under the name its caller
    # looks up; a name gone from its module would read null, not fail
    module_name, attr = name.split(":")
    assert hasattr(importlib.import_module(module_name), attr)


def _demo_imports():
    """``(demo, module, name)`` for each ``mixanchor`` import in ``demos/*.py``;
    ``name`` is ``None`` for a plain ``import``."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mixanchor"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.startswith("mixanchor")]
    return found


@pytest.mark.parametrize("demo, module_name, attr", _demo_imports())
def test_demo_import_resolves(demo, module_name, attr):
    # no test runs the demos, so a name gone from the package would break one unseen
    module = importlib.import_module(module_name)
    assert attr is None or hasattr(module, attr), f"{demo}: {module_name}.{attr}"
