"""Command-line entry points for the sampling experiments.

Four commands cover the library surface: ``exp1`` (1-D sampler comparison),
``exp2`` (multivariate convergence study), ``exp3`` (image denoising), and
``sample`` (run one chain on a named target).  Every command writes a
``manifest.json`` recording its full parameter set next to its outputs, and
``replay`` reruns a manifest; outputs are bitwise reproducible from the
recorded seed.

``_write_outputs`` is the one place output is written: a command computes
every result, then hands it an image or named columns per file.  It
creates the output directory, writes the files and writes the manifest
last, so a run that fails before it leaves no directory behind.

``_build_parser`` states each command's parameters: their names, types,
defaults and the seed rule.  A command's optional parameters repeat their
defaults in its signature, for Python callers; a test holds the two equal.
``main`` parses the command line with it.  ``replay`` turns a manifest's
params into ``--name=value`` arguments and parses them with the same
parser, so a wrong name, type or null in a manifest is the same usage
error it would be on the command line.
A manifest records the command's arguments once its defaults are resolved.

The valid range of a value is stated once, by the constructor that uses it
(``GGParams``, ``SamplerConfig``, ``LeapfrogConfig``, ``HistogramSpec``,
``WaveletOperator``).  Each command builds those objects inside ``_usage``,
so an out-of-range value is a usage error.

Exit codes: 0 success, 2 usage error, 3 file/parse error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .denoise import DenoiseModel, gibbs_denoise_run, synthetic_blocks
from .diagnostics import (
    _SSIM_SIZE,
    HistogramSpec,
    _prefix_height_blocks,
    acf,
    prefix_heights,
    snr,
    ssim,
)
# bench/tracing.py hooks this name; no command calls it, so its span counts nothing.
from .diagnostics import histogram_mse  # noqa: F401
from .integrators import LeapfrogConfig
from .model import GGParams, gg_density, gg_direct_sample, gg_energy, quad_l1_energy
from .pgm import PgmParseError, pgm_read, pgm_write
from .samplers import DIVERGENCE_THRESHOLD, SamplerConfig, run_chain
from .wavelet import WaveletOperator

__all__ = ["cmd_exp1", "cmd_exp2", "cmd_exp3", "cmd_sample", "cmd_replay", "main"]


class UsageError(Exception):
    """Bad command-line values; maps to exit code 2."""


@contextlib.contextmanager
def _usage():
    """Turn a constructor's ``ValueError`` into a ``UsageError``."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``UsageError`` instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# Cell format by dtype kind: flags as 1/0, integers in full, floats at 17
# significant digits so they round-trip.
_CELL_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}


def _write_csv(path: Path, columns: dict) -> None:
    """A CSV with one column per entry: name -> 1-D array or sequence."""
    values = [np.asarray(column) for column in columns.values()]
    row = ",".join(_CELL_FORMATS[v.dtype.kind] for v in values) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % cells for cells in zip(*(v.tolist() for v in values)))


def _write_outputs(out: Path, t0: float, files: dict) -> None:
    """Create ``out``, write each file in order, then ``manifest.json`` for
    the calling command.

    A name ending in ``.pgm`` maps to an image for ``pgm_write``; any other
    name maps to the columns of a CSV.  The manifest's params are the
    caller's arguments, read from the caller's frame, so a default resolved
    in the body (``exp1``'s ``burn_in``) is recorded resolved.  The frame,
    not the module global, names them because a profiler may replace
    ``cmd_*`` with a ``(*args, **kwargs)`` wrapper.  A path is recorded as
    a string.
    """
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        if name.endswith(".pgm"):
            pgm_write(data, out / name)
        else:
            _write_csv(out / name, data)
    caller = sys._getframe(1)
    code, scope = caller.f_code, caller.f_locals
    params = {
        name: scope[name]
        for name in code.co_varnames[: code.co_argcount]
        if name != "out_dir"
    }
    manifest = {
        "command": code.co_name.removeprefix("cmd_"),
        "params": params,
        "seed": params["seed"],
        "outputs": list(files),
        "duration_seconds": time.perf_counter() - t0,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _chain_acf(chain: np.ndarray, max_lag: int) -> np.ndarray:
    """``acf`` of a chain; NaN at every lag for a chain that never moved."""
    if chain.min() == chain.max():
        return np.full(max_lag + 1, math.nan)
    return acf(chain, max_lag)


def _mse_curve(samples, ticks, target, spec: HistogramSpec) -> np.ndarray:
    """Histogram MSE against target heights of samples[:t] for each t in ticks."""
    # np.mean's arithmetic, one pairwise sum per row, without its wrapper.
    return np.concatenate([
        np.add.reduce((h - target) ** 2, axis=1) / h.shape[1]
        for h in _prefix_height_blocks(samples, ticks, spec)
    ])


def _checkpoints(iterations: int, points: int = 200) -> np.ndarray:
    stride = max(1, iterations // points)
    ticks = np.arange(stride, iterations + 1, stride)
    if ticks[-1] != iterations:
        ticks = np.append(ticks, iterations)
    return ticks


def _configs(kinds, iterations, seed, eps, steps, burn_in=0) -> dict:
    """One ``SamplerConfig`` per kind, the i-th seeded with seed + 1 + i.

    HMC kinds run ``steps`` leapfrog steps of size ``eps``; the Metropolis
    kinds keep their unit proposal.
    """
    leapfrog = LeapfrogConfig(epsilon=eps, steps=steps)
    return {
        kind: SamplerConfig(
            kind=kind,
            iterations=iterations,
            burn_in=burn_in,
            seed=seed + 1 + i,
            leapfrog=leapfrog if kind.startswith("nshmc") else None,
        )
        for i, kind in enumerate(kinds)
    }


def cmd_exp1(
    p: float,
    lam: float,
    iterations: int,
    seed: int,
    out_dir,
    eps: float = 0.25,
    steps: int = 10,
    burn_in: int | None = None,
    max_lag: int = 50,
) -> dict:
    """1-D generalized Gaussian: proximal HMC against both Metropolis baselines.

    Writes mse_curve.csv (histogram MSE against the target density as each
    chain grows) and acf.csv (post-burn-in autocorrelations, nan for a chain
    that never moved).
    """
    if burn_in is None:
        burn_in = iterations // 4
    with _usage():
        params = GGParams(gamma=lam, p=p)
        kinds = ("nshmc2", "rwmh", "indmh")
        configs = _configs(kinds, iterations, seed, eps, steps, burn_in)
    if max_lag < 1 or max_lag >= iterations - burn_in:
        raise UsageError(
            f"max-lag {max_lag} does not fit the {iterations - burn_in} retained samples"
        )
    out = Path(out_dir)
    t0 = time.perf_counter()
    energy = gg_energy(params)
    spec = HistogramSpec()
    # One scalar call per centre, as histogram_mse makes them: the vectorized
    # call moves the last bits of the density at p = 1.5.
    target = np.asarray([float(gg_density(c, params)) for c in spec.centers])

    records = {
        name: run_chain(np.zeros(1), energy, cfg) for name, cfg in configs.items()
    }

    names = list(configs)
    ticks = _checkpoints(iterations)
    curves = {n: _mse_curve(records[n].samples, ticks, target, spec) for n in names}
    acfs = {name: _chain_acf(records[name].kept[:, 0], max_lag) for name in names}
    _write_outputs(out, t0, {
        "mse_curve.csv": {"iteration": ticks, **curves},
        "acf.csv": {"lag": np.arange(max_lag + 1), **acfs},
    })
    final = {name: curves[name][-1] for name in names}
    accept = {name: records[name].acceptance_rate for name in names}
    for name in names:
        print(
            f"exp1 {name}: final histogram MSE {final[name]:.3e}, "
            f"acceptance rate {accept[name]:.3f}"
        )
    return {"out_dir": out, "final_mse": final, "acceptance": accept, "acf": acfs}


_EXP2_BINS = {2: 20, 3: 12, 4: 8}
_MAX_CELLS = 2**20  # bins**dim above this is a usage error, not a MemoryError
# exp3's SSIM overflows from about 1e155 (noise scale ** 4).  The floor is
# the reciprocal, which keeps alpha = 1 / sigma2 and the denoiser kick's
# threshold 1 / (lam * (1 + alpha)) many decades from overflow and underflow.
_MAX_NOISE_VAR = 1e150


def _time_to_threshold(
    ticks: np.ndarray, curve: np.ndarray, threshold: float
) -> tuple[int, bool]:
    """First checkpoint after which the curve stays below the threshold."""
    ok = curve < threshold
    if ok.all():
        return int(ticks[0]), True
    last_bad = int(np.nonzero(~ok)[0][-1])
    if last_bad + 1 < len(ticks):
        return int(ticks[last_bad + 1]), True
    return int(ticks[-1]), False


_FLOOR_DRAWS = 500
_FLOOR_REPLICATES = 8


def cmd_exp2(
    dim: int,
    p: float,
    lam: float,
    iterations: int,
    seed: int,
    out_dir,
    eps: float = 0.25,
    steps: int = 10,
    bins: int | None = None,
) -> dict:
    """Multivariate convergence study against exact direct draws.

    Ground truth is the histogram of a large set of direct generalized
    Gaussian draws.  A chain counts as converged once its histogram MSE
    stays below the MSE that a 500-draw direct sample attains against the
    same ground truth (averaged over replicates so the anchor itself is
    stable).  The anchor is budget-independent on purpose: a correlated
    chain can never match the iid accuracy of its own full sample count,
    so tying the bar to the budget would censor every run.
    """
    if dim not in (2, 3, 4):
        raise UsageError(f"dim must be one of 2, 3, 4; got {dim}")
    if bins is None:
        bins = _EXP2_BINS[dim]
    with _usage():
        params = GGParams(gamma=lam, p=p)
        spec = HistogramSpec(bins=bins)
        configs = _configs(("nshmc2", "rwmh"), iterations, seed, eps, steps)
    if bins**dim > _MAX_CELLS:
        raise UsageError(f"bins**dim = {bins}**{dim} exceeds the {_MAX_CELLS}-cell limit")
    out = Path(out_dir)
    t0 = time.perf_counter()
    energy = gg_energy(params)

    ref_rng = np.random.default_rng(seed + 4)
    ref = gg_direct_sample(params, ref_rng, size=(10 * iterations, dim))
    reference = next(prefix_heights(ref, [len(ref)], spec))

    floor_rng = np.random.default_rng(seed + 5)
    direct = gg_direct_sample(params, floor_rng, size=(iterations, dim))
    floor_mse = []
    for _ in range(_FLOOR_REPLICATES):
        draws = gg_direct_sample(params, floor_rng, size=(_FLOOR_DRAWS, dim))
        floor_mse.append(_mse_curve(draws, [_FLOOR_DRAWS], reference, spec)[0])
    threshold = float(np.mean(floor_mse))

    chains = {
        name: run_chain(np.zeros(dim), energy, cfg).samples
        for name, cfg in configs.items()
    }

    ticks = _checkpoints(iterations)
    curves = {
        name: _mse_curve(samples, ticks, reference, spec)
        for name, samples in (*chains.items(), ("direct_floor", direct))
    }
    thresholds = {
        name: _time_to_threshold(ticks, curves[name], threshold) for name in chains
    }
    t_stars, flags = zip(*thresholds.values())
    _write_outputs(out, t0, {
        "mse_curve.csv": {"iteration": ticks, **curves},
        "convergence.csv": {
            "sampler": list(thresholds),
            "iterations_to_threshold": t_stars,
            "reached": flags,
            "threshold_mse": [threshold] * len(thresholds),
        },
    })
    for name, (t_star, reached) in thresholds.items():
        state = "reached" if reached else "not reached within budget"
        print(f"exp2 dim={dim} {name}: threshold {state} at iteration {t_star}")
    return {"out_dir": out, "thresholds": thresholds, "curves": curves, "ticks": ticks}


def cmd_exp3(
    input_pgm,
    noise_var: float,
    iterations: int,
    burn_in: int,
    seed: int,
    out_dir,
    eps: float = 0.5,
    steps: int = 10,
    levels: int = 3,
) -> dict:
    """Denoise an 8-bit image (a built-in synthetic one when input_pgm is None).

    Adds white Gaussian noise of the requested variance, runs the Gibbs
    sampler, and writes noisy.pgm, denoised.pgm, metrics.csv and chain.csv.
    """
    if not (noise_var == 0 or 1 / _MAX_NOISE_VAR <= noise_var <= _MAX_NOISE_VAR):
        raise UsageError(
            f"noise variance must be 0 or lie in [{1 / _MAX_NOISE_VAR:g}, "
            f"{_MAX_NOISE_VAR:g}], got {noise_var}"
        )
    t0 = time.perf_counter()
    clean = synthetic_blocks() if input_pgm is None else pgm_read(input_pgm)
    height, width = clean.shape
    with _usage():
        wavelet = WaveletOperator(width=width, height=height, levels=levels)
        config = SamplerConfig(
            kind="nshmc2",
            iterations=iterations,
            burn_in=burn_in,
            seed=seed,
            leapfrog=LeapfrogConfig(epsilon=eps, steps=steps),
        )
    if min(height, width) < _SSIM_SIZE:
        raise UsageError(
            f"SSIM needs an image of at least {_SSIM_SIZE}x{_SSIM_SIZE}, "
            f"got {width}x{height}"
        )
    # The outputs are 8-bit PGMs and SSIM is scored at dynamic range 255.
    if clean.max() > 255:
        raise UsageError(f"exp3 needs an 8-bit image, got a pixel of {clean.max():g}")
    if not clean.any():
        raise UsageError("SNR is undefined for an all-zero image")
    out = Path(out_dir)

    noise_rng = np.random.default_rng(seed + 1)
    noisy = clean + math.sqrt(noise_var) * noise_rng.standard_normal(clean.shape)

    model = DenoiseModel(observed=noisy, wavelet=wavelet)
    estimate, record = gibbs_denoise_run(model, config)
    sigma2, lam = record.samples.T

    metrics = {
        "noisy": (snr(clean, noisy), ssim(clean, noisy)),
        "denoised": (snr(clean, estimate), ssim(clean, estimate)),
    }
    snrs, ssims = zip(*metrics.values())
    _write_outputs(out, t0, {
        "noisy.pgm": noisy,
        "denoised.pgm": estimate,
        "metrics.csv": {"image": list(metrics), "snr_db": snrs, "ssim": ssims},
        "chain.csv": {
            "iteration": np.arange(iterations),
            "sigma2": sigma2,
            "lambda": lam,
            "accepted": record.accepted,
        },
    })
    for name, (snr_db, ssim_val) in metrics.items():
        print(f"exp3 {name}: SNR {snr_db:.2f} dB, SSIM {ssim_val:.4f}")
    accept = float(record.accepted[burn_in:].mean())
    print(f"exp3 x-update: post-burn-in acceptance {accept:.3f}")
    if accept == 0.0:
        print(
            "warning: exp3 accepted no x-update after burn-in; the denoised "
            "image is the chain's state at the end of burn-in (its start "
            "point if no sweep accepted any), not a posterior mean",
            file=sys.stderr,
        )
    return {"out_dir": out, "metrics": metrics, "estimate": estimate, "record": record}


def _hmc_sampler(kind: str, opts: dict, **run) -> SamplerConfig:
    if not opts["lf"].is_integer():
        raise UsageError(f"lf must be a whole number of steps, got {opts['lf']}")
    leapfrog = LeapfrogConfig(epsilon=opts["eps"], steps=int(opts["lf"]))
    return SamplerConfig(kind=kind, leapfrog=leapfrog, **run)


def _mh_sampler(kind: str, opts: dict, **run) -> SamplerConfig:
    return SamplerConfig(kind=kind, proposal_std=opts["std"], **run)


# Spec name -> (option defaults, constructor).  The constructors look
# gg_energy and the rest up when called, not when this module loads.
_TARGETS = {
    "gg": (
        {"p": 1.0, "gamma": 1.0},
        lambda name, o: gg_energy(GGParams(gamma=o["gamma"], p=o["p"])),
    ),
    "quadl1": ({"a": 1.0, "b": 0.0}, lambda name, o: quad_l1_energy(o["a"], o["b"])),
}
_SAMPLERS = {
    "nshmc1": ({"eps": 0.05, "lf": 10.0}, _hmc_sampler),
    "nshmc2": ({"eps": 0.05, "lf": 10.0}, _hmc_sampler),
    "rwmh": ({"std": 1.0}, _mh_sampler),
    "indmh": ({"std": 1.0}, _mh_sampler),
}


def _spec_help(what: str, table: dict) -> str:
    return f"valid {what}s: " + "  |  ".join(
        name + ":" + ",".join(f"{key}=<{key}>" for key in defaults)
        for name, (defaults, _) in table.items()
    )


def _build_spec(text: str, what: str, table: dict, **run):
    """Parse ``name:key=value,...`` against a spec table and build it."""
    name, _, rest = text.partition(":")
    if name not in table:
        raise UsageError(f"unknown {what} {name!r}; {_spec_help(what, table)}")
    defaults, make = table[name]
    opts = dict(defaults)
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        if not sep or key not in defaults:
            raise UsageError(
                f"bad {name} option {item!r} in {text!r}; {_spec_help(what, table)}"
            )
        try:
            opts[key] = float(value)
        except ValueError:
            raise UsageError(f"non-numeric {what} option {item!r} in {text!r}") from None
    with _usage():
        return make(name, opts, **run)


def cmd_sample(
    target: str,
    sampler: str,
    iterations: int,
    seed: int,
    out_dir,
    burn_in: int = 0,
    dim: int = 1,
) -> dict:
    """Run one chain on a named target and dump the retained samples.

    A chain that never moved is a valid run with an undefined (NaN) lag-1
    autocorrelation, unless every HMC trajectory diverged, which is a
    numeric failure.
    """
    if dim < 1:
        raise UsageError(f"dim must be >= 1, got {dim}")
    energy = _build_spec(target, "target", _TARGETS)
    config = _build_spec(
        sampler, "sampler", _SAMPLERS, iterations=iterations, burn_in=burn_in, seed=seed
    )
    out = Path(out_dir)
    t0 = time.perf_counter()
    record = run_chain(np.zeros(dim), energy, config)
    if record.divergent is not None and record.divergent.all():
        raise ValueError(
            f"every trajectory diverged (energy error above {DIVERGENCE_THRESHOLD:g} "
            f"or not finite); try a smaller eps"
        )

    kept = record.kept
    lag1 = _chain_acf(kept[:, 0], 1)[1]
    chain = {
        "iteration": np.arange(burn_in, iterations),
        **{f"x{i}": kept[:, i] for i in range(dim)},
        "accepted": record.accepted[burn_in:],
    }
    _write_outputs(out, t0, {"chain.csv": chain})
    divergent = 0 if record.divergent is None else int(record.divergent.sum())
    print(
        f"sample: acceptance rate {record.acceptance_rate:.3f}, "
        f"lag-1 autocorrelation {lag1:.3f}, divergent transitions {divergent}"
    )
    if record.acceptance_rate == 0.0:
        print(
            "warning: sample accepted no proposal; every sample is the start "
            "point (the origin), not a draw from the target",
            file=sys.stderr,
        )
    return {"out_dir": out, "record": record}


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return int(text)


def cmd_replay(manifest_path, out_dir=None) -> dict:
    """Rerun the command recorded in a manifest; outputs are bit-identical.

    The params go through the command-line parser as ``--name=value``
    arguments, so they must name exactly the command's parameters, with
    values of the parser's types.  A null stands for a parameter whose
    default is None.
    """
    path = Path(manifest_path)
    manifest = json.loads(path.read_text())
    params = manifest.get("params") if isinstance(manifest, dict) else None
    if not isinstance(params, dict):
        raise UsageError("manifest and its params must be JSON objects")
    command = manifest.get("command")
    if command not in ("exp1", "exp2", "exp3", "sample"):
        raise UsageError(f"manifest names unknown command {command!r}")
    argv = [command]
    argv += [
        f"--{name.replace('_', '-')}={value}"
        for name, value in params.items()
        if value is not None
    ]
    argv.append(f"--out-dir={path.parent if out_dir is None else out_dir}")
    args = _parse(argv)
    names = set(args) - {"run", "out_dir"}
    if set(params) != names:
        raise UsageError(
            f"{command} params must be {sorted(names)}, manifest has {sorted(params)}"
        )
    for name, value in params.items():
        if value is None and args[name] is not None:
            raise UsageError(f"{command} param {name} must not be null")
    return args.pop("run")(**args)


def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, which states each command's parameters.

    An experiment subparser's destinations are its command's parameter
    names, and its ``run`` default is the command, looked up when the
    parser is built.
    """
    parser = _Parser(
        prog="nshmc",
        description="Hamiltonian Monte Carlo for non-smooth log-concave targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(run=run)
        cmd.add_argument("--seed", type=_seed, default=0)
        cmd.add_argument("--out-dir", required=True)
        return cmd

    p1 = command("exp1", cmd_exp1, "1-D sampler comparison on a generalized Gaussian")
    p1.add_argument("--p", type=float, default=1.0, help="target exponent (>= 1)")
    p1.add_argument("--lam", type=float, default=1.0, help="target scale gamma")
    p1.add_argument("-n", "--iterations", type=int, default=20000)
    p1.add_argument("--burn-in", type=int, default=None)
    p1.add_argument("--eps", type=float, default=0.25, help="leapfrog step size")
    p1.add_argument("--steps", type=int, default=10, help="leapfrog steps")
    p1.add_argument("--max-lag", type=int, default=50)

    p2 = command("exp2", cmd_exp2, "multivariate convergence against direct draws")
    p2.add_argument("--dim", type=int, default=2, help="dimension (2, 3 or 4)")
    p2.add_argument("--p", type=float, default=1.0)
    p2.add_argument("--lam", type=float, default=1.0)
    p2.add_argument("-n", "--iterations", type=int, default=6000)
    p2.add_argument("--eps", type=float, default=0.25)
    p2.add_argument("--steps", type=int, default=10)
    p2.add_argument("--bins", type=int, default=None, help="histogram bins per axis")

    p3 = command("exp3", cmd_exp3, "Bayesian wavelet denoising of an image")
    p3.add_argument("--input-pgm", default=None, help="binary PGM input; "
                    "omit to use the built-in synthetic image")
    p3.add_argument("--noise-var", type=float, default=40.0)
    p3.add_argument("-n", "--iterations", type=int, default=1000)
    p3.add_argument("--burn-in", type=int, default=500)
    p3.add_argument("--eps", type=float, default=0.5)
    p3.add_argument("--steps", type=int, default=10)
    p3.add_argument("--levels", type=int, default=3)

    ps = command("sample", cmd_sample, "run one chain on a named target")
    ps.add_argument("--target", default="gg:p=1,gamma=1",
                    help=_spec_help("target", _TARGETS))
    ps.add_argument("--sampler", default="nshmc2:eps=0.05,lf=10",
                    help=_spec_help("sampler", _SAMPLERS))
    ps.add_argument("-n", "--iterations", type=int, default=1000)
    ps.add_argument("--burn-in", type=int, default=0)
    ps.add_argument("--dim", type=int, default=1)

    pr = sub.add_parser("replay", help="rerun a recorded manifest")
    pr.set_defaults(run=cmd_replay)
    pr.add_argument("manifest_path", metavar="manifest")
    pr.add_argument("--out-dir", default=None)
    return parser


def _parse(argv) -> dict:
    """Parse argv into a command's keyword arguments plus ``run``, the command."""
    args = vars(_build_parser().parse_args(argv))
    del args["command"]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        args.pop("run")(**args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PgmParseError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
