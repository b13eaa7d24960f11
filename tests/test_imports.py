"""Import hygiene: importing the package and its CLI loads no scipy module,
and every export resolves."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "nshmc").glob("*.py") if not p.stem.startswith("_"))


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import nshmc, nshmc.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_module_export_resolves():
    for name in MODULES:
        module = importlib.import_module(f"nshmc.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_package_imports_only_exported_names():
    # Every name that nshmc/__init__.py takes from a submodule is in that
    # submodule's __all__, so a name deleted there cannot linger here.
    tree = ast.parse((SRC / "nshmc" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"nshmc.{node.module}").__all__
        stale = [a.name for a in node.names if a.name not in exported]
        assert not stale, (node.module, stale)
