"""Benchmark of nshmc: one workload per invocation, in a fresh interpreter.

    python3 bench/run.py --workload exp1_laplace [--seed 0] [--seconds 20] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run

1. times a fixed calibration loop and prints the host block;
2. times ``import nshmc.cli`` in SETUP_REPEATS fresh interpreters;
3. repeats the workload's measured phase until ``--seconds`` have passed
   (at least once), checking the outputs of every repeat, untimed;
4. prints every metric by name with its unit, then, as the last line, one
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` half the time runs untraced and half with span tracing
installed (see tracing.py); the metrics are the per-layer ones, and the
difference of the two halves' fastest repeats is the tracing overhead.
Spans are written to ``.bench_out/`` at the repository root.

Exit status is 0 when a result was printed (a failed check is reported in
the result, not by the exit status), 2 for bad arguments or a missing
``src/nshmc``, 3 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import host
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("exp1_laplace", "chain_gg_p1.5_d16", "exp3_denoise_128", "prox_oracle")


@dataclass
class Rep:
    wall: float
    cpu: float
    ops: int
    failed: int


def measure_setup(importtime: bool) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter until ``import nshmc.cli``
    has completed, and the interpreter's stderr."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import nshmc, nshmc.cli"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise ImportError(f"import nshmc.cli failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def measure(workload, seconds: float, tracer=None) -> list[Rep]:
    """Repeat the measured phase until ``seconds`` have passed."""
    reps: list[Rep] = []
    begin = perf_counter()
    while not reps or perf_counter() - begin < seconds:
        if tracer is not None:
            tracer.run_id = len(reps)
        c0, t0 = process_time(), perf_counter()
        try:
            result = workload.call(tracer)
        except Exception:
            traceback.print_exc()
            result = None
        wall, cpu = perf_counter() - t0, process_time() - c0
        try:
            failed = workload.ops if result is None else int(workload.check(result))
        except Exception:
            traceback.print_exc()
            failed = workload.ops
        # Drop the outputs before the next repeat, so peak RSS is one repeat's.
        result = None
        reps.append(Rep(wall, cpu, workload.ops, failed))
    return reps


def end_to_end(reps: list[Rep], setup: list[float]) -> dict:
    """Timings are those of the fastest repeat.  The repeats do identical
    work, and on a shared host interference only ever adds time, in spells
    of seconds that make the median swing with how much of a run they hit."""
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (min(r.wall for r in reps), "s"),
        "ops_per_s": (max(r.ops / r.wall for r in reps), "1/s"),
        "cpu_s": (min(r.cpu for r in reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "nshmc" / "__init__.py").is_file():
        print(f"error: no nshmc package under {SRC}", file=sys.stderr)
        return 2

    calib_s = host.calibrate()
    try:
        setup = [measure_setup(bool(args.trace)) for _ in range(SETUP_REPEATS)]
        sys.path.insert(0, str(SRC))
        import nshmc

        if Path(nshmc.__file__).resolve().parent != SRC / "nshmc":
            raise ImportError(f"nshmc imported from {nshmc.__file__}, not {SRC}")
        from workloads import WORKLOADS
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = measure(workload, budget)
        traced = []
        if args.trace:
            tracer = tracing.Tracer()
            missing = tracer.install()
            try:
                traced = measure(workload, budget, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    info = host.host_block(calib_s)
    print("host " + json.dumps(info, sort_keys=True))
    metrics = end_to_end(plain, [s for s, _ in setup])
    reps = plain + traced
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    for label, phase in (("untraced", plain), ("traced", traced)):
        if phase:
            walls = " ".join(f"{r.wall:.4g}" for r in phase)
            print(f"{args.workload}: {len(phase)} {label} repeats, wall s: {walls}")
    if args.trace:
        print("end-to-end, untraced half (setup under -X importtime):")
        _print_table(metrics)
        metrics = tracing.layer_metrics(tracer)
        imports = [tracing.import_times(err) for _, err in setup]
        for module in sorted(set().union(*imports)):
            name = "nshmc" if module == "nshmc" else module.split(".", 1)[1]
            metrics[f"{name}.import_s"] = (
                statistics.median(t.get(module, 0.0) for t in imports),
                "s",
            )
        overhead = min(r.wall for r in traced) - min(r.wall for r in plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["failed_frac"] = (failed / attempted, "ratio")
        metrics["host.calib_s"] = (calib_s, "s")
        metrics["host.nproc"] = (info["nproc"], "count")
        if info["blas_threads"] is not None:
            metrics["host.blas_threads"] = (info["blas_threads"], "count")
        if missing:
            print("hooks without a target: " + ", ".join(missing))
        print("per layer, traced half:")
    _print_table(metrics)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _print_table(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
