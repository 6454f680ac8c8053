"""Spans around calls into gecsr's modules, installed from outside the package.

training, cli, adjoint and the package root import functions by name at
load time, so patching `solver.run_solver` alone would miss the calls made
through those copies.  Each wrapper therefore replaces every module global
in the gecsr package that holds the original function object.  The one
exception is the Bessel-ratio kernel: the adjoint's binding gets its own
span name so the forward solver and the adjoint pass are timed apart.

Self time of a span is its duration minus the time of the spans it
directly encloses; the spans form a tree rooted at `cli.main`.

An untimed tracer wraps only `run_solver` and `loss_and_gradient`, once
per solve, to see divergence and the spectral-init NMSE; the end-to-end
run keeps those two spans so every run's outputs can be checked.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (span, module, attribute, scope).  "all": every gecsr global bound to the
# same function; "own": the named site only.  Order matters: the adjoint's
# bessel_ratio site is claimed before the solver's wrapper rebinds the rest.
TARGETS = (
    ("adjoint.bessel_ratio", "gecsr.adjoint", "bessel_ratio", "own"),
    ("adjoint.loss_and_gradient", "gecsr.adjoint", "loss_and_gradient", "all"),
    ("adjoint.gradient_vector", "gecsr.adjoint", "gradient_vector", "all"),
    ("model.sample_at", "gecsr.model", "sample_at", "all"),
    ("model.dense_gaussian_matrix", "gecsr.model", "dense_gaussian_matrix", "all"),
    ("solver.spectral_init", "gecsr.solver", "spectral_init", "all"),
    ("solver.run_solver", "gecsr.solver", "run_solver", "all"),
    ("solver.magnitude_posterior", "gecsr.solver", "magnitude_posterior", "all"),
    ("solver.lmmse_posterior", "gecsr.solver", "lmmse_posterior", "all"),
    ("solver.gb_posterior", "gecsr.solver", "gb_posterior", "all"),
    ("solver.extrinsic", "gecsr.solver", "extrinsic", "all"),
    ("solver.damp", "gecsr.solver", "damp", "all"),
    ("solver.bessel_ratio", "gecsr.solver", "bessel_ratio", "all"),
    # One policy query is counted once, at the innermost controller.
    ("hypernets.beta", "gecsr.hypernets", "DirectSchedulePolicy.beta", "own"),
    ("hypernets.beta", "gecsr.hypernets", "StaticHyperNetPolicy.beta", "own"),
    ("hypernets.beta", "gecsr.hypernets", "HyperGruPolicy.beta", "own"),
    ("hypernets.gru_step", "gecsr.hypernets", "gru_step", "all"),
    ("hypernets.attention_head", "gecsr.hypernets", "attention_head", "all"),
    ("hypernets.policy_for_params", "gecsr.hypernets", "policy_for_params", "all"),
    ("hypernets.params_from_vector", "gecsr.hypernets", "params_from_vector", "all"),
    ("hypernets.load_checkpoint", "gecsr.hypernets", "load_checkpoint", "all"),
    ("hypernets.save_checkpoint", "gecsr.hypernets", "save_checkpoint", "all"),
    ("training.train", "gecsr.training", "train", "all"),
    ("training.evaluate", "gecsr.training", "evaluate", "all"),
    ("training.spsa_gradient", "gecsr.training", "spsa_gradient", "all"),
    ("training.adam_step", "gecsr.training", "adam_step", "all"),
    ("training.sample_loss", "gecsr.training", "sample_loss", "all"),
    ("cli.main", "gecsr.cli", "main", "all"),
)

PROBES = ("solver.run_solver", "adjoint.loss_and_gradient")

# Per-layer metrics: (name, unit, better).  The traced run reports exactly
# these, plus bench.trace_overhead, which run.py computes.
PER_LAYER = (
    ("model.sample_at.calls", "count", "lower"),
    ("model.sample_at.busy_s", "s", "lower"),
    ("model.sample_at.ms_p50", "ms", "lower"),
    ("model.sample_at.ms_p90", "ms", "lower"),
    ("model.sample_at.useful_frac", "ratio", "higher"),
    ("model.dense_gaussian_matrix.busy_s", "s", "lower"),
    ("solver.spectral_init.calls", "count", "lower"),
    ("solver.spectral_init.busy_s", "s", "lower"),
    ("solver.spectral_init.useful_frac", "ratio", "higher"),
    ("solver.run_solver.calls", "count", "lower"),
    ("solver.run_solver.busy_s", "s", "lower"),
    ("solver.run_solver.self_s", "s", "lower"),
    ("solver.run_solver.us_per_layer", "us", "lower"),
    *((f"solver.{k}.{f}", u, "lower")
      for k in ("magnitude_posterior", "lmmse_posterior", "gb_posterior",
                "extrinsic", "damp", "bessel_ratio")
      for f, u in (("calls", "count"), ("busy_s", "s"))),
    ("solver.lmmse_posterior.computed_gbytes_per_s", "GB/s", "higher"),
    ("solver.diverged", "count", "lower"),
    ("hypernets.beta.calls", "count", "lower"),
    ("hypernets.beta.busy_s", "s", "lower"),
    ("hypernets.beta.us_p50", "us", "lower"),
    ("hypernets.gru_step.busy_s", "s", "lower"),
    ("hypernets.attention_head.busy_s", "s", "lower"),
    ("hypernets.policy_for_params.calls", "count", "lower"),
    ("hypernets.policy_for_params.busy_s", "s", "lower"),
    ("hypernets.params_from_vector.calls", "count", "lower"),
    ("hypernets.params_from_vector.busy_s", "s", "lower"),
    ("hypernets.load_checkpoint.busy_s", "s", "lower"),
    ("hypernets.save_checkpoint.busy_s", "s", "lower"),
    ("adjoint.loss_and_gradient.calls", "count", "lower"),
    ("adjoint.loss_and_gradient.busy_s", "s", "lower"),
    ("adjoint.loss_and_gradient.ms_p50", "ms", "lower"),
    ("adjoint.loss_and_gradient.ms_p90", "ms", "lower"),
    ("adjoint.gradient_vector.busy_s", "s", "lower"),
    ("adjoint.bessel_ratio.busy_s", "s", "lower"),
    ("adjoint.diverged", "count", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("training.evaluate.self_s", "s", "lower"),
    ("training.spsa_gradient.calls", "count", "lower"),
    ("training.adam_step.busy_s", "s", "lower"),
    ("training.sample_loss.busy_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)


class SpanStats:
    __slots__ = ("calls", "busy", "self_time", "durations", "busy_under")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.busy_under: dict[str, float] = {}  # enclosing span -> busy time


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Patches gecsr for one command; `uninstall` restores every binding."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.stats: dict[str, SpanStats] = {}
        self.solver_runs: list[tuple[bool, int, float]] = []  # diverged, layers, init dB
        self.adjoint_runs: list[bool] = []                    # diverged
        self.train_steps = 0
        self.lmmse_bytes = 0
        self._sample_keys: set = set()
        self._init_keys: set = set()
        self._stack: list[list] = []  # [child time, span name] per open span
        self._undo: list[tuple[object, str, object]] = []

    # --------------------------------------------------------- patching

    def install(self) -> None:
        targets = [(span, *_resolve(module, attr), scope)
                   for span, module, attr, scope in TARGETS
                   if self.timed or span in PROBES]
        packages = [m for name, m in sorted(sys.modules.items())
                    if name == "gecsr" or name.startswith("gecsr.")]
        for span, owner, name, scope in targets:
            original = getattr(owner, name)
            wrapper = self._wrap(span, original)
            sites = [(owner, name)]
            if scope == "all":
                sites = [(m, key) for m in packages
                         for key, value in vars(m).items() if value is original]
            for site, key in sites:
                self._undo.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()

    def _wrap(self, span: str, fn):
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    stats.busy_under[parent[1]] = (
                        stats.busy_under.get(parent[1], 0.0) + duration)
                stats.calls += 1
                stats.busy += duration
                stats.self_time += duration - frame[0]
                stats.durations.append(duration)
            if observe is not None:
                observe(args, kwargs, out)
            return out
        return timed

    # -------------------------------------------------------- observers

    def _observe_solver_run_solver(self, args, kwargs, trace) -> None:
        self.solver_runs.append((trace.diverged, trace.layers, trace.init_nmse_db))

    def _observe_adjoint_loss_and_gradient(self, args, kwargs, out) -> None:
        self.adjoint_runs.append(bool(out[2]))

    def _observe_training_train(self, args, kwargs, result) -> None:
        self.train_steps += len(result.history)

    def _observe_model_sample_at(self, args, kwargs, sample) -> None:
        self._sample_keys.add((args[0], args[1]))

    def _observe_solver_spectral_init(self, args, kwargs, out) -> None:
        y = args[0]
        self._init_keys.add((y.shape, y.tobytes()))

    def _observe_solver_lmmse_posterior(self, args, kwargs, out) -> None:
        matrix = args[2]
        output = kwargs.get("output", args[3] if len(args) > 3 else None)
        m, n = matrix.m, matrix.n
        # Complex128 factors read: V^H and U_N^H, then V (x) or U_N (z).
        self.lmmse_bytes += 16 * (n * n + m * n + (n * n if output == "x" else m * n))

    # ---------------------------------------------------------- results

    def self_time_total(self) -> float:
        return sum(s.self_time for s in self.stats.values())

    def per_layer(self) -> dict[str, float]:
        """Every PER_LAYER metric except bench.trace_overhead."""
        def get(span: str) -> SpanStats:
            return self.stats.get(span) or SpanStats()

        def pct(span: str, q: float, scale: float) -> float:
            d = get(span).durations
            return float(np.percentile(d, q)) * scale if d else 0.0

        def frac(useful: int, span: str) -> float:
            calls = get(span).calls
            return useful / calls if calls else 0.0

        out: dict[str, float] = {}
        for name, _unit, _better in PER_LAYER:
            span, _, field = name.rpartition(".")
            if field in ("calls", "busy_s", "self_s"):
                s = get(span)
                out[name] = {"calls": s.calls, "busy_s": s.busy,
                             "self_s": s.self_time}[field]
        layers_run = sum(r[1] for r in self.solver_runs)
        # Layer time excludes the spectral inits run_solver computes itself.
        layer_busy = (get("solver.run_solver").busy - get("solver.spectral_init")
                      .busy_under.get("solver.run_solver", 0.0))
        lmmse_busy = get("solver.lmmse_posterior").busy
        out.update({
            "model.sample_at.ms_p50": pct("model.sample_at", 50, 1e3),
            "model.sample_at.ms_p90": pct("model.sample_at", 90, 1e3),
            "model.sample_at.useful_frac": frac(len(self._sample_keys), "model.sample_at"),
            "solver.spectral_init.useful_frac": frac(len(self._init_keys),
                                                     "solver.spectral_init"),
            "solver.run_solver.us_per_layer": (layer_busy / layers_run * 1e6
                                               if layers_run else 0.0),
            "solver.lmmse_posterior.computed_gbytes_per_s": (
                self.lmmse_bytes / lmmse_busy / 1e9 if lmmse_busy else 0.0),
            "solver.diverged": sum(r[0] for r in self.solver_runs),
            "hypernets.beta.us_p50": pct("hypernets.beta", 50, 1e6),
            "adjoint.loss_and_gradient.ms_p50": pct("adjoint.loss_and_gradient", 50, 1e3),
            "adjoint.loss_and_gradient.ms_p90": pct("adjoint.loss_and_gradient", 90, 1e3),
            "adjoint.diverged": sum(self.adjoint_runs),
            "training.steps": self.train_steps,
        })
        missing = {n for n, _, _ in PER_LAYER} - out.keys() - {"bench.trace_overhead"}
        if missing:
            raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
        return out
