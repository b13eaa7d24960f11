"""Command-line entry points for the sampling experiments.

Four commands cover the library surface: ``exp1`` (1-D sampler comparison),
``exp2`` (multivariate convergence study), ``exp3`` (image denoising), and
``sample`` (run one chain on a named target).  Every command writes a
``manifest.json`` recording its full parameter set next to its outputs, and
``replay`` reruns a manifest; outputs are bitwise reproducible from the
recorded seed.

Exit codes: 0 success, 2 usage error, 3 file/parse error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .denoise import DenoiseModel, gibbs_denoise_run, synthetic_blocks
from .diagnostics import HistogramSpec, acf, histogram_mse, snr, ssim
from .integrators import LeapfrogConfig
from .model import GGParams, gg_density, gg_direct_sample, gg_energy, quad_l1_energy
from .pgm import PgmParseError, pgm_read, pgm_write
from .samplers import DIVERGENCE_THRESHOLD, SamplerConfig, run_chain
from .wavelet import WaveletOperator

__all__ = ["cmd_exp1", "cmd_exp2", "cmd_exp3", "cmd_sample", "cmd_replay", "main"]


class UsageError(Exception):
    """Bad command-line values; maps to exit code 2."""


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _write_manifest(
    out_dir: Path, command: str, params: dict, seed: int, outputs: list[str], t0: float
) -> None:
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - t0,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out_dir(out_dir) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_gg_args(p: float, lam: float, iterations: int) -> None:
    if not (math.isfinite(p) and p >= 1):
        raise UsageError(f"p must be finite and >= 1, got {p}")
    if not (math.isfinite(lam) and lam > 0):
        raise UsageError(f"lam must be finite and positive, got {lam}")
    if iterations < 1:
        raise UsageError(f"iterations must be >= 1, got {iterations}")


def _checkpoints(iterations: int, points: int = 200) -> np.ndarray:
    stride = max(1, iterations // points)
    ticks = np.arange(stride, iterations + 1, stride)
    if ticks[-1] != iterations:
        ticks = np.append(ticks, iterations)
    return ticks


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
    chain grows) and acf.csv (post-burn-in autocorrelations).
    """
    _check_gg_args(p, lam, iterations)
    out = _prepare_out_dir(out_dir)
    t0 = time.perf_counter()
    if burn_in is None:
        burn_in = iterations // 4
    if not 0 <= burn_in < iterations:
        raise UsageError(
            f"burn-in must lie in [0, iterations), got {burn_in} of {iterations}"
        )
    if max_lag < 1 or max_lag >= iterations - burn_in:
        raise UsageError(
            f"max-lag {max_lag} does not fit the {iterations - burn_in} retained samples"
        )
    params = GGParams(gamma=lam, p=p)
    energy = gg_energy(params)
    spec = HistogramSpec()
    pdf = lambda t: gg_density(t, params)

    configs = {
        "nshmc2": SamplerConfig(
            kind="nshmc2",
            iterations=iterations,
            burn_in=burn_in,
            seed=seed + 1,
            leapfrog=LeapfrogConfig(epsilon=eps, steps=steps),
        ),
        "rwmh": SamplerConfig(
            kind="rwmh", iterations=iterations, burn_in=burn_in, seed=seed + 2
        ),
        "indmh": SamplerConfig(
            kind="indmh", iterations=iterations, burn_in=burn_in, seed=seed + 3
        ),
    }
    records = {
        name: run_chain(np.zeros(1), energy, cfg) for name, cfg in configs.items()
    }

    names = list(configs)
    ticks = _checkpoints(iterations)
    mse_rows = []
    for t in ticks:
        row = [int(t)]
        row += [
            histogram_mse(records[name].samples[:t, 0], pdf, spec) for name in names
        ]
        mse_rows.append(row)
    _write_csv(out / "mse_curve.csv", ["iteration"] + names, mse_rows)

    acfs = {name: acf(records[name].kept[:, 0], max_lag) for name in names}
    acf_rows = [
        [lag] + [acfs[name][lag] for name in names] for lag in range(max_lag + 1)
    ]
    _write_csv(out / "acf.csv", ["lag"] + names, acf_rows)

    _write_manifest(
        out,
        "exp1",
        {
            "p": p,
            "lam": lam,
            "iterations": iterations,
            "seed": seed,
            "eps": eps,
            "steps": steps,
            "burn_in": burn_in,
            "max_lag": max_lag,
        },
        seed,
        ["mse_curve.csv", "acf.csv"],
        t0,
    )
    final = {name: mse_rows[-1][1 + i] for i, name in enumerate(names)}
    accept = {name: records[name].acceptance_rate for name in names}
    for name in names:
        print(
            f"exp1 {name}: final histogram MSE {final[name]:.3e}, "
            f"acceptance rate {accept[name]:.3f}"
        )
    return {"out_dir": out, "final_mse": final, "acceptance": accept, "acf": acfs}


_EXP2_BINS = {2: 20, 3: 12, 4: 8}


def _mv_heights(samples: np.ndarray, bins: int, lo: float, hi: float) -> np.ndarray:
    dim = samples.shape[1]
    counts, _ = np.histogramdd(
        samples, bins=[bins] * dim, range=[(lo, hi)] * dim
    )
    volume = ((hi - lo) / bins) ** dim
    return counts.ravel() / (len(samples) * volume)


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
    _check_gg_args(p, lam, iterations)
    out = _prepare_out_dir(out_dir)
    t0 = time.perf_counter()
    if bins is None:
        bins = _EXP2_BINS[dim]
    lo, hi = -5.0, 5.0
    params = GGParams(gamma=lam, p=p)
    energy = gg_energy(params, dimension=dim)

    ref_rng = np.random.default_rng(seed + 4)
    reference = _mv_heights(
        gg_direct_sample(params, ref_rng, size=(10 * iterations, dim)), bins, lo, hi
    )
    floor_rng = np.random.default_rng(seed + 5)
    direct = gg_direct_sample(params, floor_rng, size=(iterations, dim))
    threshold = float(
        np.mean(
            [
                np.mean(
                    (
                        _mv_heights(
                            gg_direct_sample(
                                params, floor_rng, size=(_FLOOR_DRAWS, dim)
                            ),
                            bins,
                            lo,
                            hi,
                        )
                        - reference
                    )
                    ** 2
                )
                for _ in range(_FLOOR_REPLICATES)
            ]
        )
    )

    configs = {
        "nshmc2": SamplerConfig(
            kind="nshmc2",
            iterations=iterations,
            seed=seed + 1,
            leapfrog=LeapfrogConfig(epsilon=eps, steps=steps),
        ),
        "rwmh": SamplerConfig(kind="rwmh", iterations=iterations, seed=seed + 2),
    }
    chains = {
        name: run_chain(np.zeros(dim), energy, cfg).samples
        for name, cfg in configs.items()
    }

    ticks = _checkpoints(iterations)
    curves: dict[str, np.ndarray] = {}
    for name, samples in [("nshmc2", chains["nshmc2"]), ("rwmh", chains["rwmh"]),
                          ("direct_floor", direct)]:
        curves[name] = np.asarray(
            [
                float(np.mean((_mv_heights(samples[:t], bins, lo, hi) - reference) ** 2))
                for t in ticks
            ]
        )

    mse_rows = [
        [int(t), curves["nshmc2"][i], curves["rwmh"][i], curves["direct_floor"][i]]
        for i, t in enumerate(ticks)
    ]
    _write_csv(
        out / "mse_curve.csv", ["iteration", "nshmc2", "rwmh", "direct_floor"], mse_rows
    )

    conv_rows = []
    thresholds = {}
    for name in ("nshmc2", "rwmh"):
        t_star, reached = _time_to_threshold(ticks, curves[name], threshold)
        thresholds[name] = (t_star, reached)
        conv_rows.append([name, t_star, reached, threshold])
    _write_csv(
        out / "convergence.csv",
        ["sampler", "iterations_to_threshold", "reached", "threshold_mse"],
        conv_rows,
    )

    _write_manifest(
        out,
        "exp2",
        {
            "dim": dim,
            "p": p,
            "lam": lam,
            "iterations": iterations,
            "seed": seed,
            "eps": eps,
            "steps": steps,
            "bins": bins,
        },
        seed,
        ["mse_curve.csv", "convergence.csv"],
        t0,
    )
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
    """Denoise an image (a built-in synthetic one when input_pgm is None).

    Adds white Gaussian noise of the requested variance, runs the Gibbs
    sampler, and writes noisy.pgm, denoised.pgm, metrics.csv and chain.csv.
    """
    if noise_var < 0 or not math.isfinite(noise_var):
        raise UsageError(f"noise variance must be finite and >= 0, got {noise_var}")
    if iterations < 1 or not 0 <= burn_in < iterations:
        raise UsageError(
            f"need 0 <= burn-in < iterations, got {burn_in} of {iterations}"
        )
    out = _prepare_out_dir(out_dir)
    t0 = time.perf_counter()
    clean = synthetic_blocks() if input_pgm is None else pgm_read(input_pgm)
    height, width = clean.shape
    for n in (height, width):
        if n & (n - 1) != 0:
            raise UsageError(
                f"image dimensions must be powers of two, got {width}x{height}"
            )

    noise_rng = np.random.default_rng(seed + 1)
    noisy = clean + math.sqrt(noise_var) * noise_rng.standard_normal(clean.shape)

    model = DenoiseModel(
        observed=noisy, wavelet=WaveletOperator(width=width, height=height, levels=levels)
    )
    sampler = SamplerConfig(
        kind="nshmc2", iterations=1, leapfrog=LeapfrogConfig(epsilon=eps, steps=steps)
    )
    estimate, record, hyper = gibbs_denoise_run(
        model, iterations=iterations, burn_in=burn_in, sampler=sampler, seed=seed
    )

    pgm_write(noisy, out / "noisy.pgm")
    pgm_write(estimate, out / "denoised.pgm")
    metrics = {
        "noisy": (snr(clean, noisy), ssim(clean, noisy)),
        "denoised": (snr(clean, estimate), ssim(clean, estimate)),
    }
    _write_csv(
        out / "metrics.csv",
        ["image", "snr_db", "ssim"],
        [[name, v[0], v[1]] for name, v in metrics.items()],
    )
    _write_csv(
        out / "chain.csv",
        ["iteration", "sigma2", "lambda", "accepted"],
        [
            [r, hyper["sigma2"][r], hyper["lambda"][r], float(record.accepted[r])]
            for r in range(iterations)
        ],
    )

    _write_manifest(
        out,
        "exp3",
        {
            "input_pgm": None if input_pgm is None else str(input_pgm),
            "noise_var": noise_var,
            "iterations": iterations,
            "burn_in": burn_in,
            "seed": seed,
            "eps": eps,
            "steps": steps,
            "levels": levels,
        },
        seed,
        ["noisy.pgm", "denoised.pgm", "metrics.csv", "chain.csv"],
        t0,
    )
    for name, (snr_db, ssim_val) in metrics.items():
        print(f"exp3 {name}: SNR {snr_db:.2f} dB, SSIM {ssim_val:.4f}")
    return {"out_dir": out, "metrics": metrics, "estimate": estimate, "record": record}


_TARGET_HELP = "valid targets: gg:p=<p>,gamma=<g>  |  quadl1:a=<a>,b=<b>"
_SAMPLER_HELP = (
    "valid samplers: nshmc1:eps=<e>,lf=<n>  |  nshmc2:eps=<e>,lf=<n>  |  "
    "rwmh:std=<s>  |  indmh:std=<s>"
)


def _parse_spec(text: str, what: str) -> tuple[str, dict]:
    name, _, rest = text.partition(":")
    options: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise UsageError(f"malformed {what} option {item!r} in {text!r}")
            try:
                options[key] = float(value)
            except ValueError:
                raise UsageError(
                    f"non-numeric {what} option {item!r} in {text!r}"
                ) from None
    return name, options


def _build_target(text: str):
    name, opts = _parse_spec(text, "target")
    if name == "gg":
        p = opts.pop("p", 1.0)
        gamma = opts.pop("gamma", 1.0)
        if opts:
            raise UsageError(f"unknown gg options {sorted(opts)}; {_TARGET_HELP}")
        try:
            return gg_energy(GGParams(gamma=gamma, p=p))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if name == "quadl1":
        a = opts.pop("a", 1.0)
        b = opts.pop("b", 0.0)
        if opts:
            raise UsageError(f"unknown quadl1 options {sorted(opts)}; {_TARGET_HELP}")
        try:
            return quad_l1_energy(a, b)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(f"unknown target {name!r}; {_TARGET_HELP}")


def _build_sampler(text: str, iterations: int, burn_in: int, seed: int) -> SamplerConfig:
    name, opts = _parse_spec(text, "sampler")
    try:
        if name in ("nshmc1", "nshmc2"):
            eps = opts.pop("eps", 0.05)
            lf = opts.pop("lf", 10.0)
            if opts:
                raise UsageError(
                    f"unknown {name} options {sorted(opts)}; {_SAMPLER_HELP}"
                )
            if not lf.is_integer():
                raise UsageError(f"lf must be a whole number of steps, got {lf}")
            return SamplerConfig(
                kind=name,
                iterations=iterations,
                burn_in=burn_in,
                seed=seed,
                leapfrog=LeapfrogConfig(epsilon=eps, steps=int(lf)),
            )
        if name in ("rwmh", "indmh"):
            std = opts.pop("std", 1.0)
            if opts:
                raise UsageError(
                    f"unknown {name} options {sorted(opts)}; {_SAMPLER_HELP}"
                )
            return SamplerConfig(
                kind=name,
                iterations=iterations,
                burn_in=burn_in,
                seed=seed,
                proposal_std=std,
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    raise UsageError(f"unknown sampler {name!r}; {_SAMPLER_HELP}")


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
    out = _prepare_out_dir(out_dir)
    t0 = time.perf_counter()
    energy = _build_target(target)
    config = _build_sampler(sampler, iterations, burn_in, seed)
    record = run_chain(np.zeros(dim), energy, config)
    if record.divergent is not None and record.divergent.all():
        raise ValueError(
            f"every trajectory diverged (energy error above {DIVERGENCE_THRESHOLD:g} "
            f"or not finite); try a smaller eps"
        )

    kept = record.kept
    header = ["iteration"] + [f"x{i}" for i in range(dim)] + ["accepted"]
    rows = [
        [burn_in + i] + list(kept[i]) + [bool(record.accepted[burn_in + i])]
        for i in range(len(kept))
    ]
    _write_csv(out / "chain.csv", header, rows)

    moved = len(kept) > 2 and kept[:, 0].min() < kept[:, 0].max()
    lag1 = acf(kept[:, 0], 1)[1] if moved else math.nan
    _write_manifest(
        out,
        "sample",
        {
            "target": target,
            "sampler": sampler,
            "iterations": iterations,
            "seed": seed,
            "burn_in": burn_in,
            "dim": dim,
        },
        seed,
        ["chain.csv"],
        t0,
    )
    divergent = 0 if record.divergent is None else int(record.divergent.sum())
    print(
        f"sample: acceptance rate {record.acceptance_rate:.3f}, "
        f"lag-1 autocorrelation {lag1:.3f}, divergent transitions {divergent}"
    )
    return {"out_dir": out, "record": record}


_COMMANDS = {
    "exp1": cmd_exp1,
    "exp2": cmd_exp2,
    "exp3": cmd_exp3,
    "sample": cmd_sample,
}


def _run_command(command: str, params: dict) -> dict:
    """Check the params and the seed, then run one of ``_COMMANDS``.

    Both ``main`` and ``replay`` come through here.
    """
    try:
        inspect.signature(_COMMANDS[command]).bind(**params)
    except TypeError as exc:
        raise UsageError(f"bad params for {command}: {exc}") from None
    seed = params.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
    return _COMMANDS[command](**params)


def cmd_replay(manifest_path, out_dir=None) -> dict:
    """Rerun the command recorded in a manifest; outputs are bit-identical."""
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PgmParseError(f"manifest is not valid JSON: {exc}", 0) from None
    params = manifest.get("params", {}) if isinstance(manifest, dict) else None
    if not isinstance(params, dict):
        raise UsageError("manifest and its params must be JSON objects")
    command = manifest.get("command")
    if command not in _COMMANDS:
        raise UsageError(f"manifest names unknown command {command!r}")
    params = dict(params, out_dir=Path(out_dir) if out_dir is not None else path.parent)
    return _run_command(command, params)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nshmc",
        description="Hamiltonian Monte Carlo for non-smooth log-concave targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("exp1", help="1-D sampler comparison on a generalized Gaussian")
    p1.add_argument("--p", type=float, default=1.0, help="target exponent (>= 1)")
    p1.add_argument("--lam", type=float, default=1.0, help="target scale gamma")
    p1.add_argument("-n", "--iterations", type=int, default=20000)
    p1.add_argument("--burn-in", type=int, default=None)
    p1.add_argument("--seed", type=int, default=0)
    p1.add_argument("--eps", type=float, default=0.25, help="leapfrog step size")
    p1.add_argument("--steps", type=int, default=10, help="leapfrog steps")
    p1.add_argument("--max-lag", type=int, default=50)
    p1.add_argument("--out-dir", required=True)

    p2 = sub.add_parser("exp2", help="multivariate convergence against direct draws")
    p2.add_argument("--dim", type=int, default=2, help="dimension (2, 3 or 4)")
    p2.add_argument("--p", type=float, default=1.0)
    p2.add_argument("--lam", type=float, default=1.0)
    p2.add_argument("-n", "--iterations", type=int, default=6000)
    p2.add_argument("--seed", type=int, default=0)
    p2.add_argument("--eps", type=float, default=0.25)
    p2.add_argument("--steps", type=int, default=10)
    p2.add_argument("--bins", type=int, default=None, help="histogram bins per axis")
    p2.add_argument("--out-dir", required=True)

    p3 = sub.add_parser("exp3", help="Bayesian wavelet denoising of an image")
    p3.add_argument("--input-pgm", default=None, help="binary PGM input; "
                    "omit to use the built-in synthetic image")
    p3.add_argument("--noise-var", type=float, default=40.0)
    p3.add_argument("-n", "--iterations", type=int, default=1000)
    p3.add_argument("--burn-in", type=int, default=500)
    p3.add_argument("--seed", type=int, default=0)
    p3.add_argument("--eps", type=float, default=0.5)
    p3.add_argument("--steps", type=int, default=10)
    p3.add_argument("--levels", type=int, default=3)
    p3.add_argument("--out-dir", required=True)

    ps = sub.add_parser("sample", help="run one chain on a named target")
    ps.add_argument("--target", default="gg:p=1,gamma=1", help=_TARGET_HELP)
    ps.add_argument("--sampler", default="nshmc2:eps=0.05,lf=10", help=_SAMPLER_HELP)
    ps.add_argument("-n", "--iterations", type=int, default=1000)
    ps.add_argument("--burn-in", type=int, default=0)
    ps.add_argument("--dim", type=int, default=1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out-dir", required=True)

    pr = sub.add_parser("replay", help="rerun a recorded manifest")
    pr.add_argument("manifest")
    pr.add_argument("--out-dir", default=None)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "replay":
            cmd_replay(args["manifest"], args["out_dir"])
        else:
            # Each subparser's destinations are its command's parameter names.
            _run_command(command, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PgmParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
