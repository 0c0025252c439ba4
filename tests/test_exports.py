"""Every name a ``mixanchor`` module exports through ``__all__``, every
name the benchmark's layer tracer wraps, and every ``mixanchor`` name the
demos import, resolves; demo 01 prints what it always printed."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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
    # only demo 01 is run by a test, so a name gone from the package would break
    # another one unseen
    module = importlib.import_module(module_name)
    assert attr is None or hasattr(module, attr), f"{demo}: {module_name}.{attr}"


DEMO_01_STDOUT = """\
mixture: 0.65 N(-8, sd 2) + 0.35 N(-0.5, sd 1)

global moments: mean = -5.3750, variance = 15.746875

standardised offsets alpha = [-0.6615   1.22851]
scale ratios         tau   = [0.504 0.252]
constraint sum p*alpha           = -3.84e-17
constraint sum p*(tau^2+alpha^2) = 1.000000000000000

sphere coordinates gamma = [-0.53332  0.72679], eta = [0.40634 0.14909]
radius split: phi^2 = 0.81266 (location share of the unit norm)
unit norm check: 1.000000000000000

hyperplane basis rows:
[[-0.59161  0.80623]]
orthogonal to sqrt(p): [1.90195987e-17]

angular coordinates: phi_sq = 0.81266, sign = 1, xi = [0.35165]

round trip: locs [-8.  -0.5], scales [2. 1.]
max abs error: 8.88e-16
"""


def test_demo_01_prints_its_recorded_tour():
    # the tour walks one mixture through every stage of the map, so its text
    # pins the stages' values to the digits it prints
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, str(root / "demos" / "01_reparameterisation_tour.py")],
                         env=dict(os.environ, PYTHONPATH=str(root / "src")),
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout == DEMO_01_STDOUT
