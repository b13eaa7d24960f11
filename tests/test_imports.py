"""Import hygiene: importing the package and its CLI loads no scipy module,
every export resolves, and so does every name the benchmark's tracer hooks
and every name the demos import."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


def test_integrators_import_nothing_from_the_package():
    # The integrator is plain numerics on arrays; the choice of kick, and
    # with it every energy handle, stays in samplers.py.
    tree = ast.parse((SRC / "nshmc" / "integrators.py").read_text())
    relative = [
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert not relative, relative


def test_tracer_spans_resolve():
    # bench/tracing.py patches package attributes by name and skips a name
    # that is gone, so a rename would silently drop the span from the report.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {}
    for module, attr, span in tracing.HOOKS:
        found = tracing._resolve(f"{module}.{attr}") is not None
        targets[span] = targets.get(span, False) or found
    assert targets and all(targets.values()), targets
    assert tracing._resolve(".".join(tracing.ENERGY_FACTORY)) is not None


def test_demo_imports_resolve():
    # The demos are not run by the tests, so check their package imports
    # statically: a deleted public name would otherwise break one unseen.
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module.split(".")[0] == "nshmc":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, (demo.name, node.module, missing)
