"""Span recorder for the traced run, and the per-layer metrics built on it.

A span is (name, start, end, parent).  The recorder keeps spans in flat
arrays in memory and writes them to one .npz file when the process ends.
`install` wraps the public functions and methods of each kinlim layer, in
every kinlim module namespace that imported them, so the program's own
code is not edited.  Self time is a span's duration minus the part of it
covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# name -> unit of every per-layer metric; BENCHMARK.json lists the same.
PER_LAYER = {
    "torus.eval_at.calls": "count",
    "torus.eval_at.points": "count",
    "torus.eval_at.self_s": "s",
    "torus.eval_at.ns_per_point": "ns",
    "kinetic.step_micro.calls": "count",
    "kinetic.particle_steps": "count",
    "kinetic.step_micro.self_s": "s",
    "kinetic.ns_per_particle_step": "ns",
    "kinetic.make_ensemble.s": "s",
    "kinetic.functional_samples.eps0.5.s": "s",
    "kinetic.functional_samples.eps0.25.s": "s",
    "kinetic.functional_samples.eps0.125.s": "s",
    "kinetic.moments.calls": "count",
    "kinetic.moments.s": "s",
    "kinetic.moments.ms_per_call": "ms",
    "kinetic.lb_jumps": "count",
    "kinetic.lb_jumps_expected": "count",
    "forcing.generate_path.calls": "count",
    "forcing.generate_path.s": "s",
    "forcing.path_segments": "count",
    "forcing.value_at.s": "s",
    "rng.substream.calls": "count",
    "rng.substream.s": "s",
    "coefficients.compute_coefficients.s": "s",
    "coefficients.compute_cov_operator.s": "s",
    "coefficients.kernel_dim": "count",
    "coefficients.kernel_mb": "MB",
    "coefficients.csv_write.s": "s",
    "coefficients.csv_read.s": "s",
    "spde.step_hat.calls": "count",
    "spde.realization_steps": "count",
    "spde.step_hat.s": "s",
    "spde.us_per_realization_step": "us",
    "spde.run_ensemble.s": "s",
    "spde.ffts_per_step": "count",
    "spde.noise_mb": "MB",
    "experiment.convergence_study.self_s": "s",
    "cli.coeffs.s": "s",
    "cli.converge.s": "s",
    "cli.simulate-kinetic.s": "s",
    "cli.simulate-spde.s": "s",
    "cli.write_checkpoint.s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_s_sum": "s",
    "trace.spans": "count",
}


class SpanRecorder:
    """Nested spans of one thread, kept in flat arrays until `save`."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = []
        self.counters = defaultdict(float)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans must finish in the order they began")

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack \
            else None

    def count(self, name: str, n=1) -> None:
        self.counters[name] += n

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 counter_names=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()),
                                         dtype=float))


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent (which a stack recorder never produces) cannot drive the
    parent's self time below zero.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    out = (end - start).tolist()
    children = np.nonzero(parent >= 0)[0]
    order = children[np.lexsort((start[children], parent[children]))]
    start, end, parent = start.tolist(), end.tolist(), parent.tolist()
    cur_parent, covered_to = -1, 0
    for c in order.tolist():
        p = parent[c]
        lo = max(start[c], start[p])
        hi = min(end[c], end[p])
        if p != cur_parent:
            cur_parent, covered_to = p, lo
        lo = max(lo, covered_to)
        if hi > lo:
            out[p] -= hi - lo
            covered_to = hi
    return np.array(out, dtype=np.int64)


def load_spans(path):
    """(per-name totals, counters, span count) from a saved recorder file."""
    with np.load(path) as z:
        names = list(z["names"])
        nid = z["name_id"]
        start, end, parent = z["start"], z["end"], z["parent"]
        counters = dict(zip(z["counter_names"], z["counter_values"]))
    own = self_times(start, end, parent)
    totals = {}
    for i, name in enumerate(names):
        sel = nid == i
        totals[name] = {"calls": int(sel.sum()),
                        "s": float((end[sel] - start[sel]).sum()) * 1e-9,
                        "self_s": float(own[sel].sum()) * 1e-9}
    counters["self_s_sum"] = float(own.sum()) * 1e-9
    return totals, counters, int(start.size)


def per_layer_metrics(totals, counters, n_spans, output_bytes,
                      traced_wall, untraced_wall) -> dict:
    """Every PER_LAYER metric of one traced round; 0 for a layer not run."""
    def tot(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    c = defaultdict(float, counters)
    m = {
        "torus.eval_at.calls": tot("torus.eval_at", "calls"),
        "torus.eval_at.points": c["torus.eval_at.points"],
        "torus.eval_at.self_s": tot("torus.eval_at", "self_s"),
        "torus.eval_at.ns_per_point": ratio(
            tot("torus.eval_at", "self_s"), c["torus.eval_at.points"], 1e9),
        "kinetic.step_micro.calls": tot("kinetic.step_micro", "calls"),
        "kinetic.particle_steps": c["kinetic.particle_steps"],
        "kinetic.step_micro.self_s": tot("kinetic.step_micro", "self_s"),
        "kinetic.ns_per_particle_step": ratio(
            tot("kinetic.step_micro"), c["kinetic.particle_steps"], 1e9),
        "kinetic.make_ensemble.s": tot("kinetic.make_ensemble"),
        "kinetic.moments.calls": tot("kinetic.moments", "calls"),
        "kinetic.moments.s": tot("kinetic.moments"),
        "kinetic.moments.ms_per_call": ratio(
            tot("kinetic.moments"), tot("kinetic.moments", "calls"), 1e3),
        "kinetic.lb_jumps": c["kinetic.lb_jumps"],
        "kinetic.lb_jumps_expected": c["kinetic.lb_jumps_expected"],
        "forcing.generate_path.calls": tot("forcing.generate_path", "calls"),
        "forcing.generate_path.s": tot("forcing.generate_path"),
        "forcing.path_segments": c["forcing.path_segments"],
        "forcing.value_at.s": tot("forcing.value_at"),
        "rng.substream.calls": tot("rng.substream", "calls"),
        "rng.substream.s": tot("rng.substream"),
        "coefficients.compute_coefficients.s":
            tot("coefficients.compute_coefficients"),
        "coefficients.compute_cov_operator.s":
            tot("coefficients.compute_cov_operator"),
        "coefficients.kernel_dim": c["coefficients.kernel_dim"],
        "coefficients.kernel_mb": c["coefficients.kernel_bytes"] / 1e6,
        "coefficients.csv_write.s": tot("coefficients.csv_write"),
        "coefficients.csv_read.s": tot("coefficients.csv_read"),
        "spde.step_hat.calls": tot("spde.step_hat", "calls"),
        "spde.realization_steps": c["spde.realization_steps"],
        "spde.step_hat.s": tot("spde.step_hat"),
        "spde.us_per_realization_step": ratio(
            tot("spde.step_hat"), c["spde.realization_steps"], 1e6),
        "spde.run_ensemble.s": tot("spde.run_ensemble"),
        "spde.ffts_per_step": ratio(
            c["spde.step_hat.ffts"], tot("spde.step_hat", "calls"), 1),
        "spde.noise_mb": c["spde.noise_bytes"] / 1e6,
        "experiment.convergence_study.self_s":
            tot("experiment.convergence_study", "self_s"),
        "cli.write_checkpoint.s": tot("cli.write_checkpoint"),
        "cli.output_bytes": output_bytes,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_s_sum": c["self_s_sum"],
        "trace.spans": n_spans,
    }
    for eps in ("0.5", "0.25", "0.125"):
        m[f"kinetic.functional_samples.eps{eps}.s"] = \
            tot(f"kinetic.functional_samples.eps{eps}")
    for stage in ("coeffs", "converge", "simulate-kinetic", "simulate-spde"):
        m[f"cli.{stage}.s"] = tot(f"cli.{stage}")
    return {k: float(m[k]) for k in PER_LAYER}


# -- wrapping the program's layers --------------------------------------------


def _replace_everywhere(orig, wrapped):
    """Point every kinlim module attribute bound to `orig` at `wrapped`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kinlim"
                               or mod_name.startswith("kinlim.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def _timed(rec, name, orig, after=None, name_fn=None):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name_fn(*args, **kwargs) if name_fn else name)
        try:
            out = orig(*args, **kwargs)
        finally:
            rec.finish(idx)
        if after is not None:
            after(out, *args, **kwargs)
        return out
    return wrapper


def _wrap_function(rec, module, attr, name, **kw):
    orig = getattr(module, attr)
    _replace_everywhere(orig, _timed(rec, name, orig, **kw))


def _wrap_method(rec, cls, attr, name, **kw):
    setattr(cls, attr, _timed(rec, name, getattr(cls, attr), **kw))


def install(rec: SpanRecorder) -> None:
    """Wrap each layer's public entry points with spans and counters."""
    import kinlim.cli
    from kinlim import coefficients, experiment, forcing, kinetic, rng, spde
    from kinlim.torus import TorusField

    _wrap_method(rec, TorusField, "eval_at", "torus.eval_at",
                 after=lambda out, *a: rec.count("torus.eval_at.points",
                                                 len(out)))

    step_orig = kinetic.step_micro
    replay = np.random.Generator(np.random.Philox(0))

    @functools.wraps(step_orig)
    def step_micro(ens, path, dt, seed, collision):
        state = seed.bit_generator.state   # the stages pass a Generator
        idx = rec.begin("kinetic.step_micro")
        try:
            out = step_orig(ens, path, dt, seed, collision)
        finally:
            rec.finish(idx)
        n = ens.n_particles
        rec.count("kinetic.particle_steps", n)
        if collision == "lb":
            # replay the step's first draw (the jump uniforms) on a copy of
            # its stream; the replay is tracing overhead, kept in its own span
            idx = rec.begin("trace.lb_replay")
            replay.bit_generator.state = state
            draws = replay.random(n)
            p = -np.expm1(-dt)
            rec.count("kinetic.lb_jumps", int((draws < p).sum()))
            rec.count("kinetic.lb_jumps_expected", n * p)
            rec.count("kinetic.lb_jumps_var", n * p * (1 - p))
            rec.finish(idx)
        return out
    _replace_everywhere(step_orig, step_micro)

    _wrap_function(rec, kinetic, "make_ensemble", "kinetic.make_ensemble")
    _wrap_function(rec, kinetic, "moments", "kinetic.moments")
    _wrap_function(
        rec, kinetic, "functional_samples", None,
        name_fn=lambda cfg, *a, **k:
            f"kinetic.functional_samples.eps{cfg.epsilon:g}")

    _wrap_function(rec, forcing, "generate_path", "forcing.generate_path",
                   after=lambda out, *a, **k: rec.count(
                       "forcing.path_segments", len(out.samples)))
    _wrap_method(rec, forcing.ForcePath, "value_at", "forcing.value_at")
    _wrap_function(rec, rng, "substream", "rng.substream")

    def kernel_size(cov, *a, **k):
        rec.count("coefficients.kernel_dim", cov.kernel.shape[0])
        rec.count("coefficients.kernel_bytes", cov.kernel.nbytes)
    _wrap_function(rec, coefficients, "compute_coefficients",
                   "coefficients.compute_coefficients")
    _wrap_function(rec, coefficients, "compute_cov_operator",
                   "coefficients.compute_cov_operator", after=kernel_size)
    for attr in ("coefficients_to_csv", "spectrum_to_csv"):
        _wrap_function(rec, coefficients, attr, "coefficients.csv_write")
    for attr in ("coefficients_from_csv", "spectrum_from_csv"):
        _wrap_function(rec, coefficients, attr, "coefficients.csv_read")

    def batch(out, stepper, coef, g=None):
        extra = np.ndim(coef) - stepper.grid.dim
        rec.count("spde.realization_steps",
                  int(np.prod(np.shape(coef)[:extra])) if extra else 1)
    _wrap_method(rec, spde.SpdeStepper, "step_hat", "spde.step_hat",
                 after=batch)
    for attr in ("to_physical", "to_spectral"):
        orig = getattr(spde.SpdeStepper, attr)

        def counted(self, arr, _orig=orig):
            if rec.current() == "spde.step_hat":
                rec.count("spde.step_hat.ffts")
            return _orig(self, arr)
        setattr(spde.SpdeStepper, attr, functools.wraps(orig)(counted))

    ens_sig = inspect.signature(spde.run_ensemble)

    def noise_size(res, *args, **kwargs):
        b = ens_sig.bind(*args, **kwargs).arguments
        n_steps = int(round(b["horizon"] / b["dt"]))
        rec.count("spde.noise_bytes",
                  b["n_realizations"] * n_steps * res.noise_rank * 8)
    _wrap_function(rec, spde, "run_ensemble", "spde.run_ensemble",
                   after=noise_size)

    _wrap_function(rec, experiment, "convergence_study",
                   "experiment.convergence_study")
    _wrap_function(rec, kinlim.cli, "_write_checkpoint",
                   "cli.write_checkpoint")
