"""Command-line interface: outputs, manifests, replay, exit codes."""

import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nshmc import cli
from nshmc.cli import cmd_exp1, cmd_exp2, cmd_exp3, cmd_replay, cmd_sample, main
from nshmc.denoise import synthetic_blocks
from nshmc.diagnostics import HistogramSpec, histogram_mse
from nshmc.model import GGParams, gg_density, gg_direct_sample
from nshmc.pgm import pgm_read, pgm_write
from nshmc.samplers import run_chain


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _assert_only_listed_outputs(out):
    manifest = json.loads((out / "manifest.json").read_text())
    files = sorted(path.name for path in out.iterdir())
    assert files == sorted([*manifest["outputs"], "manifest.json"])


# The per-cell rule that _write_csv's per-column formats replaced.
def _per_cell_format(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def test_write_csv_matches_per_cell_format(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
    columns = {
        "x": np.array(floats),
        "n": np.array([2**62, -(2**62), -1, 0, 1, 7, 10**18], dtype=np.int64),
        "flag": np.array([True, False, False, True, True, False, True]),
        "name": ["nshmc2", "rwmh", "indmh", "a b", "", "-", "x0"],
    }
    path = tmp_path / "table.csv"
    cli._write_csv(path, columns)
    want = "x,n,flag,name\n" + "".join(
        ",".join(_per_cell_format(v) for v in row) + "\n"
        for row in zip(*columns.values())
    )
    assert path.read_bytes() == want.encode()


def test_exp1_outputs(tmp_path):
    res = cmd_exp1(p=1.0, lam=1.0, iterations=400, seed=0, out_dir=tmp_path)
    header, rows = _read_csv(tmp_path / "mse_curve.csv")
    assert header == ["iteration", "nshmc2", "rwmh", "indmh"]
    ticks = [int(r[0]) for r in rows]
    assert ticks == sorted(ticks) and ticks[-1] == 400
    assert all(float(v) >= 0.0 for r in rows for v in r[1:])

    header, rows = _read_csv(tmp_path / "acf.csv")
    assert header == ["lag", "nshmc2", "rwmh", "indmh"]
    assert len(rows) == 51
    assert rows[0][0] == "0" and float(rows[0][1]) == 1.0

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "exp1"
    assert manifest["params"]["iterations"] == 400
    assert manifest["params"]["burn_in"] == 100
    assert manifest["outputs"] == ["mse_curve.csv", "acf.csv"]
    _assert_only_listed_outputs(tmp_path)
    assert set(res["final_mse"]) == {"nshmc2", "rwmh", "indmh"}


def test_exp1_hmc_decorrelates_faster_than_rwmh(tmp_path):
    res = cmd_exp1(p=1.5, lam=1.0, iterations=6000, seed=0, out_dir=tmp_path)
    ns = res["acf"]["nshmc2"][1:6]
    rw = res["acf"]["rwmh"][1:6]
    assert np.all(ns < rw)


def test_exp2_outputs(tmp_path):
    res = cmd_exp2(
        dim=2, p=1.0, lam=1.0, iterations=500, seed=0, out_dir=tmp_path
    )
    header, rows = _read_csv(tmp_path / "mse_curve.csv")
    assert header == ["iteration", "nshmc2", "rwmh", "direct_floor"]
    assert int(rows[-1][0]) == 500

    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["sampler", "iterations_to_threshold", "reached", "threshold_mse"]
    assert [r[0] for r in rows] == ["nshmc2", "rwmh"]
    for r in rows:
        assert 1 <= int(r[1]) <= 500
        assert r[2] in ("0", "1")
        assert float(r[3]) > 0.0
    assert set(res["thresholds"]) == {"nshmc2", "rwmh"}
    _assert_only_listed_outputs(tmp_path)


# The per-prefix curves that exp1 and exp2 computed before the running
# counts, kept as the reference for cli._mse_curve.
def _exp1_reference_curve(samples, ends, params, spec):
    pdf = lambda t: gg_density(t, params)
    return np.array([histogram_mse(samples[:t], pdf, spec) for t in ends])


def _exp2_reference_heights(samples, spec):
    dim = samples.shape[1]
    counts, _ = np.histogramdd(
        samples, bins=[spec.bins] * dim, range=[(spec.lo, spec.hi)] * dim
    )
    return counts.ravel() / (len(samples) * spec.width**dim)


_UNEVEN_ENDS = [1, 2, 3, 10, 11, 64, 200, 201, 777, 1000]


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_mse_curve_matches_per_prefix_reference(p, dim):
    params = GGParams(gamma=1.0, p=p)
    rng = np.random.default_rng(dim)
    samples = gg_direct_sample(params, rng, size=(1000, dim))
    if dim == 1:
        spec = HistogramSpec()
        target = gg_density(spec.centers, params)
        want = _exp1_reference_curve(samples[:, 0], _UNEVEN_ENDS, params, spec)
    else:
        spec = HistogramSpec(bins=cli._EXP2_BINS[dim])
        ref = gg_direct_sample(params, rng, size=(5000, dim))
        target = _exp2_reference_heights(ref, spec)
        want = np.array(
            [
                np.mean((_exp2_reference_heights(samples[:t], spec) - target) ** 2)
                for t in _UNEVEN_ENDS
            ]
        )
    assert np.array_equal(cli._mse_curve(samples, _UNEVEN_ENDS, target, spec), want)


def test_mse_curve_matches_per_prefix_reference_across_blocks():
    # 8**4 cells take 15 ends per block, so exp2's 200 checkpoints of a
    # 1000-step chain span 14 blocks, each carrying the counts of the last.
    params = GGParams(gamma=1.0, p=1.5)
    rng = np.random.default_rng(11)
    samples = gg_direct_sample(params, rng, size=(1000, 4))
    spec = HistogramSpec(bins=8)
    target = _exp2_reference_heights(gg_direct_sample(params, rng, size=(5000, 4)), spec)
    ends = cli._checkpoints(1000)
    assert len(ends) == 200
    want = [
        np.mean((_exp2_reference_heights(samples[:t], spec) - target) ** 2)
        for t in ends
    ]
    assert np.array_equal(cli._mse_curve(samples, ends, target, spec), want)


def test_mse_curve_memory_stays_near_one_height_vector():
    # At the 2**20-cell limit each end goes alone: 20 ends as one dense
    # (ends x cells) block would take 160 MB.
    spec = HistogramSpec(bins=32)
    samples = np.random.default_rng(0).standard_normal((2000, 4))
    target = np.zeros(spec.bins**4)
    tracemalloc.start()
    try:
        curve = cli._mse_curve(samples, range(100, 2001, 100), target, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.shape == (20,)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_exp1_curve_matches_histogram_mse_per_prefix(tmp_path, monkeypatch, p):
    chains = []

    def recording_run_chain(*args, **kwargs):
        record = run_chain(*args, **kwargs)
        chains.append(record.samples[:, 0])
        return record

    monkeypatch.setattr(cli, "run_chain", recording_run_chain)
    cmd_exp1(p=p, lam=1.0, iterations=500, seed=3, out_dir=tmp_path)
    _, rows = _read_csv(tmp_path / "mse_curve.csv")
    ticks = [int(r[0]) for r in rows]
    params = GGParams(gamma=1.0, p=p)
    for column, samples in enumerate(chains, start=1):
        want = _exp1_reference_curve(samples, ticks, params, HistogramSpec())
        assert [float(r[column]) for r in rows] == list(want)


def test_exp3_outputs(tmp_path):
    res = cmd_exp3(
        input_pgm=None,
        noise_var=40.0,
        iterations=150,
        burn_in=75,
        seed=0,
        out_dir=tmp_path,
    )
    assert pgm_read(tmp_path / "noisy.pgm").shape == (64, 64)
    assert pgm_read(tmp_path / "denoised.pgm").shape == (64, 64)

    header, rows = _read_csv(tmp_path / "metrics.csv")
    assert header == ["image", "snr_db", "ssim"]
    assert [r[0] for r in rows] == ["noisy", "denoised"]
    for r in rows:
        float(r[1])
        assert 0.0 <= float(r[2]) <= 1.0

    header, rows = _read_csv(tmp_path / "chain.csv")
    assert header == ["iteration", "sigma2", "lambda", "accepted"]
    assert len(rows) == 150
    # The accepted column is the per-sweep fraction of accepted
    # coefficients, not a 0/1 flag.
    fracs = [float(r[3]) for r in rows]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    assert any(0.0 < f < 1.0 for f in fracs)
    assert res["metrics"]["denoised"][0] > res["metrics"]["noisy"][0]
    _assert_only_listed_outputs(tmp_path)


def test_exp3_reports_x_update_acceptance(tmp_path, capsys):
    argv = ["exp3", "-n", "20", "--burn-in", "10", "--seed", "0"]
    assert main([*argv, "--out-dir", str(tmp_path / "ok")]) == 0
    out, err = capsys.readouterr()
    assert "exp3 x-update: post-burn-in acceptance" in out
    assert "acceptance 0.000" not in out and err == ""
    # At a noise variance of 1e-20 the fixed step is far too large for the
    # curvature 1/sigma2, so no sweep accepts a coefficient: the run still
    # succeeds, but says that its estimate never moved.
    argv += ["--noise-var", "1e-20", "--out-dir", str(tmp_path / "stuck")]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "exp3 x-update: post-burn-in acceptance 0.000" in out
    assert err.startswith("warning: exp3 accepted no x-update after burn-in")


def test_sample_that_mixes_prints_no_warning(tmp_path, capsys):
    argv = ["sample", "--target", "gg:p=1.5", "--dim", "4", "-n", "200"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("sample: acceptance rate ") and "rate 0.000" not in out
    assert err == ""


def test_exp3_reads_pgm_input(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 200, size=(32, 32)).astype(float)
    src = tmp_path / "input.pgm"
    pgm_write(img, src)
    out = tmp_path / "run"
    cmd_exp3(
        input_pgm=src,
        noise_var=10.0,
        iterations=20,
        burn_in=10,
        seed=0,
        out_dir=out,
    )
    assert (out / "denoised.pgm").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["input_pgm"] == str(src)


def test_sample_outputs(tmp_path):
    res = cmd_sample(
        target="gg:p=1,gamma=1",
        sampler="nshmc2:eps=0.25,lf=10",
        iterations=400,
        seed=0,
        out_dir=tmp_path,
        burn_in=100,
    )
    header, rows = _read_csv(tmp_path / "chain.csv")
    assert header == ["iteration", "x0", "accepted"]
    assert len(rows) == 300
    assert int(rows[0][0]) == 100 and int(rows[-1][0]) == 399
    assert set(r[2] for r in rows) <= {"0", "1"}
    assert 0.0 < res["record"].acceptance_rate < 1.0
    _assert_only_listed_outputs(tmp_path)


def test_sample_multivariate_quadl1(tmp_path):
    cmd_sample(
        target="quadl1:a=2,b=1",
        sampler="rwmh:std=0.8",
        iterations=50,
        seed=1,
        out_dir=tmp_path,
        dim=3,
    )
    header, rows = _read_csv(tmp_path / "chain.csv")
    assert header == ["iteration", "x0", "x1", "x2", "accepted"]
    assert len(rows) == 50


def test_replay_reproduces_outputs_bitwise(tmp_path):
    a = tmp_path / "a"
    cmd_exp1(p=1.0, lam=1.0, iterations=300, seed=7, out_dir=a)
    b = tmp_path / "b"
    cmd_replay(a / "manifest.json", out_dir=b)
    for name in ("mse_curve.csv", "acf.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    c = tmp_path / "c"
    cmd_sample(
        target="gg:p=1.5,gamma=2",
        sampler="indmh:std=2",
        iterations=200,
        seed=3,
        out_dir=c,
    )
    d = tmp_path / "d"
    cmd_replay(c / "manifest.json", out_dir=d)
    assert (c / "chain.csv").read_bytes() == (d / "chain.csv").read_bytes()


def test_replay_rejects_bad_manifests(tmp_path):
    bogus = tmp_path / "manifest.json"
    bogus.write_text(json.dumps({"command": "bogus", "params": {}}))
    assert main(["replay", str(bogus)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["replay", str(broken)]) == 3
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    assert main(["replay", str(undecodable)]) == 3


def _drop_iterations(manifest):
    del manifest["params"]["iterations"]
    return manifest


def _set_param(name, value):
    return lambda m: {**m, "params": {**m["params"], name: value}}


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: {**m, "params": {**m["params"], "bogus": 1}},
        lambda m: [m],
        _drop_iterations,
        lambda m: {**m, "params": list(m["params"].items())},
        _set_param("iterations", 20.5),
        _set_param("dim", "four"),
        _set_param("target", 5),
        _set_param("target", None),
    ],
    ids=["unknown-param", "list-body", "missing-param", "list-params",
         "float-iterations", "string-dim", "int-target", "null-target"],
)
def test_replay_malformed_manifest_is_usage_error(tmp_path, capsys, edit):
    cmd_sample(target="gg:p=1", sampler="rwmh:std=1", iterations=20, seed=0,
               out_dir=tmp_path)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["replay", str(path), "--out-dir", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_EDIT_POOL = [-1, 0, 3, 20.5, "four", "-x", True, None, [1], {}]


def test_replay_edited_manifests_never_raise(tmp_path, capsys):
    # Seeded random edits of a valid manifest: drop a param, add an unknown
    # one, or set one from a pool of wrong and borderline values.  Every
    # edit ends in a documented exit code, and every failure says why.
    cmd_sample(target="gg:p=1", sampler="rwmh:std=1", iterations=20, seed=0,
               out_dir=tmp_path)
    base = json.loads((tmp_path / "manifest.json").read_text())
    rng = random.Random(0)
    path = tmp_path / "edited.json"
    codes = set()
    for i in range(40):
        params = dict(base["params"])
        for _ in range(rng.randint(1, 2)):
            action = rng.choice(["drop", "add", "set", "set"])
            if action == "drop" and params:
                del params[rng.choice(sorted(params))]
            elif action == "add":
                params[rng.choice(["bogus", "out_dir", "n", "help"])] = 1
            else:
                params[rng.choice(sorted(base["params"]))] = rng.choice(_EDIT_POOL)
        path.write_text(json.dumps({**base, "params": params}))
        capsys.readouterr()
        code = main(["replay", str(path), "--out-dir", str(tmp_path / f"r{i}")])
        codes.add(code)
        assert code in (0, 2, 3, 4), params
        if code:
            assert capsys.readouterr().err.startswith("error: "), params
    assert codes >= {0, 2}


def test_replay_type_error_exits_2_without_traceback(tmp_path):
    cmd_sample(target="gg:p=1", sampler="rwmh:std=1", iterations=20, seed=0,
               out_dir=tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["params"]["dim"] = "four"
    path.write_text(json.dumps(manifest))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "nshmc", "replay", str(path),
         "--out-dir", str(tmp_path / "r")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_parser_defaults_match_signature_defaults():
    # A command's optional parameters have their defaults twice: in the
    # parser, for the command line and replay, and in the signature, for
    # Python callers such as the benchmark's workloads.  They must agree.
    parser = cli._build_parser()
    defaulted = {
        "exp1": {"eps", "steps", "burn_in", "max_lag"},
        "exp2": {"eps", "steps", "bins"},
        "exp3": {"eps", "steps", "levels"},
        "sample": {"burn_in", "dim"},
    }
    for command, names in defaulted.items():
        args = vars(parser.parse_args([command, "--out-dir", "unused"]))
        params = inspect.signature(args["run"]).parameters.values()
        signature = {p.name: p.default for p in params if p.default is not p.empty}
        assert set(signature) == names, command
        for name, default in signature.items():
            assert args[name] == default, (command, name)
            assert type(args[name]) is type(default), (command, name)


def test_main_argparse_errors_return_2(tmp_path, capsys):
    d = str(tmp_path)
    for argv in (["exp1"], ["exp1", "--bogus", "--out-dir", d],
                 ["exp1", "-n", "x", "--out-dir", d]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_main_success_exit_code(tmp_path):
    assert main(["sample", "-n", "50", "--out-dir", str(tmp_path)]) == 0


def test_main_usage_errors_exit_2(tmp_path):
    d = str(tmp_path)
    assert main(["exp2", "--dim", "5", "--out-dir", d]) == 2
    assert main(["exp1", "--p", "0.5", "--out-dir", d]) == 2
    assert main(["exp1", "-n", "400", "--max-lag", "400", "--out-dir", d]) == 2
    assert main(["exp1", "-n", "100", "--burn-in", "100", "--out-dir", d]) == 2
    assert main(["exp3", "--levels", "9", "--out-dir", d]) == 2
    # The largest and the smallest positive noise variance run without a
    # warning; the next float out is a usage error that creates no output
    # directory.
    for var, code in ((1e150, 0), (math.nextafter(1e150, math.inf), 2),
                      (1e-150, 0), (math.nextafter(1e-150, 0.0), 2)):
        loud = tmp_path / f"loud-{var!r}"
        argv = ["exp3", "-n", "2", "--burn-in", "0", f"--noise-var={var!r}"]
        assert main([*argv, "--out-dir", str(loud)]) == code
        assert loud.exists() == (code == 0)
    cells = tmp_path / "cells"
    assert main(["exp2", "-n", "200", "--bins", "100000", "--out-dir", str(cells)]) == 2
    assert not cells.exists()
    assert main(["sample", "--sampler", "hmcx", "--out-dir", d]) == 2
    assert main(["sample", "--target", "gg:p=abc", "--out-dir", d]) == 2
    assert main(["sample", "--sampler", "rwmh:std=-1", "--out-dir", d]) == 2
    # An image that SSIM cannot window, or whose SNR is undefined, is
    # rejected before the sampler runs.
    rng = np.random.default_rng(0)
    for name, img in (("small", rng.integers(1, 200, size=(8, 8))),
                      ("zero", np.zeros((16, 16)))):
        src = tmp_path / f"{name}.pgm"
        pgm_write(img.astype(float), src)
        out = tmp_path / name
        assert main(["exp3", "--input-pgm", str(src), "-n", "5", "--burn-in", "0",
                     "--out-dir", str(out)]) == 2
        assert not out.exists()


# Each command with small run lengths, and every option it takes except
# --out-dir and --input-pgm.
_SWEEP_COMMANDS = {
    "exp1": (["-n", "200"],
             ["seed", "p", "lam", "iterations", "burn-in", "eps", "steps", "max-lag"]),
    "exp2": (["-n", "200"],
             ["seed", "dim", "p", "lam", "iterations", "eps", "steps", "bins"]),
    "exp3": (["-n", "4", "--burn-in", "1"],
             ["seed", "noise-var", "iterations", "burn-in", "eps", "steps", "levels"]),
    "sample": (["-n", "20"],
               ["seed", "target", "sampler", "iterations", "burn-in", "dim"]),
}
_SWEEP_VALUES = ["0", "-1", "nan", "inf", "-inf", "2.5", "x", "1e308", "5e-324"]


def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys):
    # Every value either runs or is a usage error that says why and writes
    # nothing; none is reported as a numeric failure.
    for command, (base, options) in _SWEEP_COMMANDS.items():
        for option in options:
            for value in _SWEEP_VALUES:
                out = tmp_path / f"{command}-{option}-{value}"
                argv = [command, *base, f"--{option}={value}", f"--out-dir={out}"]
                capsys.readouterr()
                code = main(argv)
                assert code in (0, 2), argv
                if code == 2:
                    assert capsys.readouterr().err.startswith("error: "), argv
                    assert not out.exists(), argv


def test_exp1_unmoved_chain_has_nan_acf(tmp_path):
    # At eps = 0 every nshmc2 trajectory returns to its start: the chain
    # never moves, so its autocorrelation is undefined.
    assert main(["exp1", "-n", "200", "--eps", "0", "--out-dir", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "acf.csv")
    assert header == ["lag", "nshmc2", "rwmh", "indmh"]
    assert all(r[1] == "nan" for r in rows)
    assert all(r[2] != "nan" and r[3] != "nan" for r in rows)


def test_main_file_errors_exit_3(tmp_path):
    out = tmp_path / "out"
    d = str(out)
    missing = str(tmp_path / "nope.pgm")
    assert main(["exp3", "--input-pgm", missing, "-n", "10", "--burn-in", "0",
                 "--out-dir", d]) == 3
    garbage = tmp_path / "garbage.pgm"
    garbage.write_bytes(b"P6 2 2 255 \x00\x00\x00\x00")
    assert main(["exp3", "--input-pgm", str(garbage), "-n", "10", "--burn-in", "0",
                 "--out-dir", d]) == 3
    assert not out.exists()
    # An --out-dir under a regular file is found once the run is done, and
    # nothing is written.
    under_file = garbage / "out"
    assert main(["sample", "-n", "20", "--out-dir", str(under_file)]) == 3
    assert garbage.read_bytes() == b"P6 2 2 255 \x00\x00\x00\x00"


def test_main_numeric_failure_exit_4(tmp_path):
    # A step size of 1e300 throws every trajectory out to |x| ~ 1e300, so
    # every energy error is astronomically large: each trajectory diverged.
    out = tmp_path / "out"
    code = main([
        "sample",
        "--sampler", "nshmc2:eps=1e300,lf=10",
        "-n", "50",
        "--out-dir", str(out),
    ])
    assert code == 4
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "-n", str(10**15)],
        ["exp1", "-n", str(10**15)],
        ["exp2", "-n", str(10**15)],
        ["exp3", "-n", str(10**12), "--burn-in", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_run_too_large_for_memory_exits_4(tmp_path, capsys, argv):
    # Each run asks for petabytes at once, beyond the 128 TiB that a process
    # maps by default, so numpy raises MemoryError under any overcommit mode.
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_exp3_rejects_non_power_of_two_image(tmp_path):
    img = np.zeros((6, 6))
    src = tmp_path / "odd.pgm"
    pgm_write(img, src)
    assert main(["exp3", "--input-pgm", str(src), "-n", "10", "--burn-in", "0",
                 "--out-dir", str(tmp_path)]) == 2


def test_exp3_reads_sides_divisible_by_2_to_the_levels(tmp_path):
    # Sides need only divide by 2**levels = 8, not be powers of two.
    img = np.random.default_rng(0).integers(0, 200, size=(24, 40)).astype(float)
    src = tmp_path / "input.pgm"
    pgm_write(img, src)
    out = tmp_path / "run"
    assert main(["exp3", "--input-pgm", str(src), "-n", "5", "--burn-in", "0",
                 "--out-dir", str(out)]) == 0
    assert pgm_read(out / "denoised.pgm").shape == (24, 40)


def test_exp3_rejects_16_bit_image(tmp_path):
    # The outputs are 8-bit, so a pixel above 255 would be clipped.
    src = tmp_path / "deep.pgm"
    pgm_write(synthetic_blocks(64) * 200, src, maxval=65535)
    out = tmp_path / "run"
    assert main(["exp3", "--input-pgm", str(src), "-n", "10", "--burn-in", "0",
                 "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_lf_must_be_whole(tmp_path):
    d = str(tmp_path)
    for lf in ("2.7", "inf", "nan"):
        spec = f"nshmc2:eps=0.05,lf={lf}"
        assert main(["sample", "--sampler", spec, "-n", "5", "--out-dir", d]) == 2
    assert main(["sample", "--sampler", "nshmc1:eps=0.05,lf=3.0", "-n", "5",
                 "--out-dir", d]) == 0


def test_negative_seed_is_usage_error(tmp_path):
    d = str(tmp_path / "neg")
    assert main(["exp1", "-n", "100", "--seed", "-1", "--out-dir", d]) == 2
    assert main(["exp2", "-n", "100", "--seed", "-1", "--out-dir", d]) == 2
    assert main(["exp3", "-n", "2", "--burn-in", "0", "--seed", "-1",
                 "--out-dir", d]) == 2
    assert main(["sample", "-n", "5", "--seed", "-1", "--out-dir", d]) == 2

    run = tmp_path / "run"
    assert main(["sample", "-n", "5", "--seed", "3", "--out-dir", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["params"]["seed"] = -1
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    assert main(["replay", str(bad), "--out-dir", d]) == 2


def test_sample_without_accepted_proposal_exits_0(tmp_path, capsys):
    # From the origin at d = 64 every nshmc2 proposal is rejected (energy
    # errors near 12, far from divergent), so the chain never moves.  The
    # run still succeeds and writes its chain, but warns that it never moved.
    code = main(["sample", "--target", "gg:p=1.5", "--dim", "64", "-n", "20",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out, err = capsys.readouterr()
    assert out == (
        "sample: acceptance rate 0.000, lag-1 autocorrelation nan, "
        "divergent transitions 0\n"
    )
    assert err.startswith("warning: sample accepted no proposal")
    header, rows = _read_csv(tmp_path / "chain.csv")
    assert len(rows) == 20 and {r[-1] for r in rows} == {"0"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["params"]["dim"] == 64


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "sampler", ["indmh:std=1e-308", "indmh:std=1e-200", "indmh:std=1e308", "rwmh:std=1e308"]
)
def test_sample_at_extreme_proposal_std_exits_0(tmp_path, capsys, sampler):
    # A valid proposal_std never crashes the run: an overflowing proposal
    # is a rejection, and a chain moving on a scale of 1e-200 still has an
    # autocorrelation.  A chain that rejects every proposal says so on
    # stderr, and nothing else is written there.
    code = main(["sample", "--sampler", sampler, "-n", "200", "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0
    if sampler.endswith("e308"):
        assert "acceptance rate 0.000" in out
        assert err.startswith("warning: sample accepted no proposal")
        assert err.count("\n") == 1
    else:
        assert "lag-1 autocorrelation nan" not in out
        assert err == ""


@pytest.mark.filterwarnings("error")
def test_sample_near_float_max_has_autocorrelation(tmp_path, capsys):
    # The sum of a chain moving on a scale of 1e307 overflows; acf still
    # reports a finite lag-1 autocorrelation, without a warning.
    code = main(["sample", "--target", "gg:p=1,gamma=1e308", "--sampler", "rwmh:std=1e307",
                 "-n", "200", "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert math.isfinite(float(re.search(r"lag-1 autocorrelation (\S+),", out)[1]))


@pytest.mark.filterwarnings("error")
def test_sample_divergences_are_rejections(tmp_path, capsys):
    # At eps = 2 the p = 3 gradient kick overflows on most trajectories.
    # Each diverged trajectory is a rejected proposal, so the chain is kept.
    code = main(["sample", "--target", "gg:p=3", "--sampler", "nshmc1:eps=2,lf=10",
                 "-n", "200", "--out-dir", str(tmp_path)])
    assert code == 0
    divergent = int(re.search(r"divergent transitions (\d+)", capsys.readouterr().out)[1])
    assert 0 < divergent < 200
    header, rows = _read_csv(tmp_path / "chain.csv")
    assert len(rows) == 200
    assert np.isfinite([float(r[1]) for r in rows]).all()
    assert (tmp_path / "manifest.json").is_file()
