"""Span tracing around nshmc's public callables, from outside the package.

``install`` replaces module attributes (``nshmc.model.prox_power``,
``nshmc.cli.run_chain``, ...) with wrappers that record one span per call:
name, start, end, parent span and run id.  Spans live in flat arrays in
memory and are written out by ``Tracer.dump`` once the run has ended.
``layer_metrics`` turns them into the per-layer numbers.

Only boundaries that the package is expected to keep are hooked.  Leapfrog
kicks are counted through the ``prox``/``subgrad``/``grad`` handles of the
energy that ``gg_energy`` returns, not through the per-step integrator
functions, and the oracle's function evaluations are counted by wrapping
its input with ``custom_fn``.  A hook whose target is missing is skipped
and its metrics are left out of the report.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

SAMPLER_KINDS = ("nshmc2", "rwmh", "indmh")

# (module, attribute, span name).  Several targets may feed one span name.
HOOKS = [
    ("nshmc.cli", "cmd_exp1", "cli.command"),
    ("nshmc.cli", "cmd_exp3", "cli.command"),
    ("nshmc.cli", "cmd_sample", "cli.command"),
    ("nshmc.model", "prox_power", "convex.prox_power"),
    ("nshmc.model", "prox_soft_threshold", "convex.prox_soft_threshold"),
    ("nshmc.denoise", "prox_soft_threshold", "convex.prox_soft_threshold"),
    ("nshmc.denoise", "prox_denoise_energy", "convex.prox_denoise_energy"),
    ("nshmc.convex", "prox_numeric_oracle", "convex.prox_numeric_oracle"),
    ("nshmc.integrators", "PhaseState", "model.phase_state"),
    ("nshmc.samplers", "PhaseState", "model.phase_state"),
    ("nshmc.samplers", "hamiltonian_eval", "model.hamiltonian_eval"),
    ("nshmc.denoise", "ig_sample", "model.ig_sample"),
    ("nshmc.samplers", "integrate_trajectory", "integrators.trajectory"),
    ("nshmc.cli", "run_chain", "samplers.run_chain"),
    ("nshmc.cli", "histogram_mse", "diagnostics.histogram_mse"),
    ("nshmc.cli", "acf", "diagnostics.acf"),
    ("nshmc.cli", "ssim", "diagnostics.ssim"),
    ("nshmc.cli", "snr", "diagnostics.snr"),
    ("nshmc.wavelet.WaveletOperator", "forward", "wavelet.forward"),
    ("nshmc.wavelet.WaveletOperator", "inverse", "wavelet.inverse"),
    ("nshmc.cli", "pgm_read", "pgm.read"),
    ("nshmc.cli", "pgm_write", "pgm.write"),
    ("nshmc.cli", "gibbs_denoise_run", "denoise.gibbs"),
]
ENERGY_FACTORY = ("nshmc.cli", "gg_energy")
ENERGY_HANDLES = ("value", "prox", "subgrad", "grad")
KICK_HANDLES = ("model.energy.prox", "model.energy.subgrad", "model.energy.grad")


def _resolve(path):
    """Import ``a.b.C`` as module ``a.b`` plus attribute chain; None if gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = 0
        self.extras: dict[str, list] = {}
        self.fn_evals = [0, 0]  # float and mpmath evaluations seen by the oracle
        self.hooked: set[str] = set()
        self._restore: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_return=None):
        nid = self._id(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, run, stack = self.parent, self.run, self.stack

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                self.extras.setdefault(name, []).append(
                    (self.run_id, idx, on_return(args, kwargs, result))
                )
            return result

        return traced

    def counted(self, f):
        """Evaluator for ``custom_fn`` that counts float and mpmath calls."""
        counts = self.fn_evals

        def evaluate(u):
            counts[type(u) is not float] += 1
            return f(u)

        return evaluate

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every hook target that exists; return the ones missing."""
        missing = []
        extra = {
            "samplers.run_chain": _chain_extra,
            "denoise.gibbs": _gibbs_extra,
            "pgm.read": lambda a, k, r: os.path.getsize(k["path"] if "path" in k else a[0]),
            "pgm.write": lambda a, k, r: os.path.getsize(k["path"] if "path" in k else a[1]),
        }
        for target, attr, name in HOOKS:
            owner = _resolve(target)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                missing.append(f"{target}.{attr}")
                continue
            self._patch(owner, attr, self.wrap(name, fn, extra.get(name)))
            self.hooked.add(name)
        owner = _resolve(ENERGY_FACTORY[0])
        factory = getattr(owner, ENERGY_FACTORY[1], None) if owner else None
        if factory is None:
            missing.append(".".join(ENERGY_FACTORY))
        else:
            self._patch(owner, ENERGY_FACTORY[1], self._traced_energy(factory))
            self.hooked.update(f"model.energy.{h}" for h in ENERGY_HANDLES)
        return missing

    def _traced_energy(self, factory):
        def make(*args, **kwargs):
            energy = factory(*args, **kwargs)
            handles = {
                h: self.wrap(f"model.energy.{h}", getattr(energy, h))
                for h in ENERGY_HANDLES
                if getattr(energy, h, None) is not None
            }
            return dataclasses.replace(energy, **handles)

        return make

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def arrays(self):
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.int32),
        }

    def dump(self, path):
        """Write every span, plus the name table, to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _chain_extra(args, kwargs, record):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return {
        "kind": config.kind,
        "iterations": config.iterations,
        "accept": record.acceptance_rate,
        "kept": record.kept[:, 0].copy(),
    }


def _gibbs_extra(args, kwargs, result):
    record = result[1]
    return {
        "iterations": len(record.samples),
        "accept": record.acceptance_rate,
        "samples_bytes": record.samples.nbytes,
    }


def integrated_time(rho) -> float:
    """Integrated autocorrelation time, at least 1, from autocorrelations at
    lags 0, 1, ..., by Geyer's initial positive sequence."""
    rho = np.asarray(rho, dtype=float)
    m = rho.size - rho.size % 2
    pairs = rho[0:m:2] + rho[1:m:2]
    stop = np.flatnonzero(pairs <= 0.0)
    k = stop[0] if stop.size else pairs.size
    return max(-1.0 + 2.0 * float(pairs[:k].sum()), 1.0)


def ess(x) -> float:
    """Effective sample size n / integrated_time, so at most n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    d = x - x.mean()
    if n < 4 or not d.any():
        return 0.0
    spec = np.fft.rfft(d, 2 * n)
    rho = np.fft.irfft(spec * np.conj(spec))[:n]
    return n / integrated_time(rho / rho[0])


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Counts and chain statistics come from traced run 0, whose inputs are
    fixed by the seed, so they repeat exactly.  ``.s`` values are self time
    per run (span duration minus the time its child spans cover), as the
    median over traced runs.  Percentiles and per-call times use whole span
    durations over all traced runs.  Metrics of a hook that found no target
    are left out; a hooked layer the workload never reaches reports 0.
    """
    a = tracer.arrays()
    names = tracer.names
    nn = max(len(names), 1)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    covered = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_t = dur - covered[: dur.size]
    runs = int(a["run"].max()) + 1 if dur.size else 1
    key = a["run"] * nn + a["name_id"]
    calls = np.bincount(key, minlength=runs * nn).reshape(runs, nn)
    selfs = np.bincount(key, weights=self_t, minlength=runs * nn).reshape(runs, nn)
    totals = np.bincount(key, weights=dur, minlength=runs * nn).reshape(runs, nn)

    def nid(name):
        return tracer._ids.get(name)

    def count(name):
        i = nid(name)
        return int(calls[0, i]) if i is not None else 0

    def self_s(name):
        i = nid(name)
        return float(np.median(selfs[:, i])) if i is not None else 0.0

    def total_s(name):
        i = nid(name)
        return float(np.median(totals[:, i])) if i is not None else 0.0

    def durations(name):
        i = nid(name)
        return dur[a["name_id"] == i] if i is not None else np.empty(0)

    out = {}
    hooked = tracer.hooked

    def put(layer, metric, value, unit):
        if layer in hooked:
            out[metric] = (value, unit)

    put("cli.command", "cli.command_s", total_s("cli.command"), "s")
    put("cli.command", "cli.self_s", self_s("cli.command"), "s")
    for layer in (
        "convex.prox_power",
        "convex.prox_soft_threshold",
        "convex.prox_denoise_energy",
        "model.hamiltonian_eval",
        "model.energy.value",
        "model.energy.prox",
        "model.energy.subgrad",
        "model.ig_sample",
        "samplers.run_chain",
        "diagnostics.histogram_mse",
        "diagnostics.acf",
        "wavelet.forward",
        "wavelet.inverse",
    ):
        put(layer, f"{layer}.calls", count(layer), "count")
        put(layer, f"{layer}.s", self_s(layer), "s")

    oracle = "convex.prox_numeric_oracle"
    ms = durations(oracle) * 1e3
    put(oracle, f"{oracle}.calls", count(oracle), "count")
    put(oracle, f"{oracle}.ms_p50", _pct(ms, 50), "ms")
    put(oracle, f"{oracle}.ms_p99", _pct(ms, 99), "ms")
    n_oracle = max(ms.size, 1)
    put(oracle, "convex.oracle.fn_evals_per_call", tracer.fn_evals[0] / n_oracle, "count")
    put(oracle, "convex.oracle.mp_evals_per_call", tracer.fn_evals[1] / n_oracle, "count")

    put("model.phase_state", "model.phase_state.count", count("model.phase_state"), "count")
    put("model.phase_state", "model.phase_state.s", self_s("model.phase_state"), "s")

    traj = "integrators.trajectory"
    us = durations(traj) * 1e6
    put(traj, f"{traj}.calls", count(traj), "count")
    put(traj, f"{traj}.us_p50", _pct(us, 50), "us")
    put(traj, f"{traj}.us_p99", _pct(us, 99), "us")
    if traj in hooked and "model.energy.prox" in hooked:
        kick_ids = [nid(k) for k in KICK_HANDLES if nid(k) is not None]
        is_kick = (a["run"] == 0) & has_parent & np.isin(a["name_id"], kick_ids)
        kicks = np.count_nonzero(a["name_id"][a["parent"][is_kick]] == nid(traj))
        out["integrators.kicks_per_trajectory"] = (kicks / max(count(traj), 1), "count")

    chains = tracer.extras.get("samplers.run_chain", [])
    for kind in SAMPLER_KINDS:
        per_call = [
            dur[i] * 1e6 / info["iterations"]
            for _, i, info in chains
            if info["kind"] == kind
        ]
        first = [info for run, _, info in chains if run == 0 and info["kind"] == kind]
        put("samplers.run_chain", f"samplers.transition_us.{kind}", _median(per_call), "us")
        put(
            "samplers.run_chain",
            f"samplers.accept_rate.{kind}",
            first[0]["accept"] if first else 0.0,
            "ratio",
        )
        put(
            "samplers.run_chain",
            f"samplers.ess.{kind}",
            ess(first[0]["kept"]) if first else 0.0,
            "count",
        )

    acf_ms = durations("diagnostics.acf") * 1e3
    put("diagnostics.acf", "diagnostics.acf.ms_max", float(acf_ms.max()) if acf_ms.size else 0.0, "ms")
    put("diagnostics.ssim", "diagnostics.ssim.s", self_s("diagnostics.ssim"), "s")
    put("diagnostics.snr", "diagnostics.snr.s", self_s("diagnostics.snr"), "s")

    for io in ("read", "write"):
        layer = f"pgm.{io}"
        sizes = [b for run, _, b in tracer.extras.get(layer, []) if run == 0]
        put(layer, f"{layer}.s", self_s(layer), "s")
        put(layer, f"{layer}.bytes", int(sum(sizes)), "bytes")

    gibbs = "denoise.gibbs"
    infos = tracer.extras.get(gibbs, [])
    first = [info for run, _, info in infos if run == 0]
    sweeps = sum(info["iterations"] for _, _, info in infos)
    put(gibbs, "denoise.gibbs.s", self_s(gibbs), "s")
    put(gibbs, "denoise.sweep_ms", float(durations(gibbs).sum()) * 1e3 / sweeps if sweeps else 0.0, "ms")
    put(gibbs, "denoise.accept_frac", first[0]["accept"] if first else 0.0, "ratio")
    put(gibbs, "denoise.samples_bytes", first[0]["samples_bytes"] if first else 0, "bytes")
    return out


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of ``nshmc`` and each submodule, parsed
    from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        module = fields[2].strip()
        if module == "nshmc" or module.startswith("nshmc."):
            try:
                out[module] = int(fields[1]) / 1e6
            except ValueError:
                continue
    return out
