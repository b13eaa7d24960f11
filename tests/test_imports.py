"""Import hygiene: the package runs on numpy alone.  Importing it and its
CLI, and calling ``gg_cdf``, loads no scipy or mpmath module, and every
command runs where neither can be imported; both serve only the tests.
Every export resolves, and so does every name the benchmark's tracer hooks
and every name the demos import.  The tracer can also read the denoiser's
record, and its energy hook leaves a chain's samples as they were."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "nshmc").glob("*.py") if not p.stem.startswith("_"))


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy_or_mpmath():
    code = (
        "import nshmc, nshmc.cli, sys; "
        "nshmc.gg_cdf([-1.0, 0.5], nshmc.GGParams(1.0, 1.5)); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    assert _run_python(code).strip() == "[]"


def test_commands_run_without_scipy_or_mpmath(tmp_path):
    # A None entry in sys.modules makes every import of that name raise
    # ImportError, as in an environment where it is not installed.
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['mpmath'] = None\n"
        "from nshmc import GGParams, gg_cdf\n"
        "from nshmc.cli import main\n"
        "print(json.dumps(gg_cdf([-2.0, 0.0, 3.0], GGParams(1.0, 1.5)).tolist()))\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (\n"
        "    ['exp1', '-n', '200'], ['exp2', '-n', '200'], ['sample'],\n"
        "    ['exp3', '-n', '4', '--burn-in', '2'],\n"
        "):\n"
        "    assert main([*argv, '--out-dir', f'{out}/{argv[0]}']) == 0, argv\n"
    )
    cdf = json.loads(_run_python(code).splitlines()[0])
    assert cdf[0] < 0.5 == cdf[1] < cdf[2]
    for command in ("exp1", "exp2", "sample", "exp3"):
        assert (tmp_path / command / "manifest.json").is_file()


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


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_spans_resolve():
    # bench/tracing.py patches package attributes by name and skips a name
    # that is gone, so a rename would silently drop the span from the report.
    tracing = _load_tracing()
    targets = {}
    for module, attr, span in tracing.HOOKS:
        found = tracing._resolve(f"{module}.{attr}") is not None
        targets[span] = targets.get(span, False) or found
    assert targets and all(targets.values()), targets
    assert tracing._resolve(".".join(tracing.ENERGY_FACTORY)) is not None


def test_tracer_reads_the_denoiser_record():
    # The denoise.gibbs span reads the run's record: one (sigma2, lam) row
    # of 16 bytes per sweep and the acceptance rate.  Only a traced
    # benchmark run calls it, so a change to the record would break unseen.
    import numpy as np

    from nshmc.denoise import DenoiseModel, gibbs_denoise_run, synthetic_blocks
    from nshmc.samplers import SamplerConfig
    from nshmc.wavelet import WaveletOperator

    config = SamplerConfig(kind="nshmc2", iterations=6, burn_in=2, seed=0)
    noisy = synthetic_blocks(16) + np.random.default_rng(0).standard_normal((16, 16))
    result = gibbs_denoise_run(DenoiseModel(noisy, WaveletOperator(16, 16, 3)), config)
    extra = _load_tracing()._gibbs_extra((), {}, result)
    assert extra["iterations"] == config.iterations
    assert extra["samples_bytes"] == 16 * config.iterations
    assert extra["accept"] == result[1].acceptance_rate


def test_tracer_energy_hook_keeps_the_chain():
    # The tracer rebuilds each energy that nshmc.cli.gg_energy returns, with
    # every handle wrapped, by dataclasses.replace.  A traced chain must
    # sample as an untraced one does, and make one value call for the
    # initial state plus one per transition.
    import numpy as np

    import nshmc.cli
    from nshmc.model import GGParams
    from nshmc.samplers import SamplerConfig, run_chain

    config = SamplerConfig(kind="nshmc2", iterations=20, seed=0)
    params = GGParams(1.0, 1.5)
    plain = run_chain(np.zeros(4), nshmc.cli.gg_energy(params), config)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_chain(np.zeros(4), nshmc.cli.gg_energy(params), config)
    finally:
        tracer.uninstall()
    assert plain.accepted.any()
    assert np.array_equal(traced.samples, plain.samples)
    assert tracing.layer_metrics(tracer)["model.energy.value.calls"] == (21, "count")


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
