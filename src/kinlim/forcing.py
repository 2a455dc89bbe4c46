"""Mixing random force fields on the torus.

Two constructions of a stationary, exponentially mixing, centred Markov field
t -> E(t, .) with values in a fixed ball of a Sobolev space:

* renewal: the field sits at a draw from a base law nu and is redrawn,
  independently, at the jump times of a rate-1 Poisson process.  For centred
  linear observables the semigroup is exp(-t) times the identity, so the
  resolvents have the closed forms R_lam(e) = e / (1 + lam).

* ou: a fixed band-limited vector field times clamp(u, -R, R), where u is
  a one-dimensional Ornstein-Uhlenbeck process du = -u dt + sqrt(2) dB at
  equilibrium; the link is bounded and Lipschitz.  Given u0, u_t is
  N(e^-t u0, 1 - e^-2t), so the resolvents have a closed form in the
  Gaussian distribution function (`resolvent_apply`).

The default base law is the symmetric two-point law on +/- a*cos(2 pi k0 x)
along one axis: it is centred, ball-bounded, and every second-moment
expectation can be enumerated over the two atoms, which gives the exact
oracles used by the verification suite.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .rng import as_generator
from .torus import TorusField, TorusGrid, vector_sobolev_norm

RENEWAL = "renewal"
OU = "ou"

# slack of the span checks `ForcePath.covers` and `PathBlock.covers`
_COVER_TOL = 1e-9


@dataclass(frozen=True)
class ForceSample:
    """One draw e from the stationary law, with its norm bound.

    `state` carries the underlying Markov state when the field is a function
    of a hidden process (the OU construction); it is None for renewal fields.
    """

    field: TorusField
    norm_bound: float
    state: np.ndarray | None = None


class ForceFieldModel:
    """Stationary mixing force field (renewal or OU-driven)."""

    def __init__(self, kind, grid, atoms=None, link_field=None,
                 clip_radius=5.0, sobolev_index=6.0):
        if kind not in (RENEWAL, OU):
            raise ValueError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.grid = grid
        self.sobolev_index = float(sobolev_index)
        if kind == RENEWAL:
            if not atoms:
                raise ValueError("renewal model needs at least one atom")
            self.atoms = list(atoms)
            self.weights = np.full(len(self.atoms), 1.0 / len(self.atoms))
            mean = sum(w * a.physical() for w, a in zip(self.weights, self.atoms))
            if np.max(np.abs(mean)) > 1e-12:
                raise ValueError("base law must be centred")
            self.norm_bound = max(
                (vector_sobolev_norm(a, self.sobolev_index) for a in self.atoms),
                default=0.0,
            )
        else:
            if link_field is None:
                raise ValueError("ou model needs a link field")
            self.link_field = link_field
            self.clip_radius = float(clip_radius)
            self.norm_bound = self.clip_radius * vector_sobolev_norm(
                link_field, self.sobolev_index)

    # -- stationary sampling ------------------------------------------------

    def link(self, u: np.ndarray) -> TorusField:
        """OU link map: the link field times the clamped state u[0]."""
        r = self.clip_radius
        return self.link_field * min(max(float(u[0]), -r), r)

    def _draw_atom_index(self, rng) -> int:
        return int(rng.choice(len(self.atoms), p=self.weights))



def two_point_renewal(grid: TorusGrid, amplitude: float, mode: int = 1,
                      axis: int = 0, sobolev_index: float = 6.0) -> ForceFieldModel:
    """Symmetric two-point base law +/- amplitude*cos(2 pi mode x_axis) e_axis."""
    def comp(*xs):
        out = np.zeros((grid.dim,) + grid.shape)
        out[axis] = amplitude * np.cos(2 * np.pi * mode * xs[axis])
        return out

    atom = TorusField.from_function(grid, 1, comp)
    return ForceFieldModel(RENEWAL, grid, atoms=[atom, -1.0 * atom],
                           sobolev_index=sobolev_index)


def constant_two_point_renewal(grid: TorusGrid, amplitude: float,
                               axis: int = 0,
                               sobolev_index: float = 6.0) -> ForceFieldModel:
    """Space-homogeneous two-point law +/- amplitude * e_axis."""
    vec = np.zeros(grid.dim)
    vec[axis] = amplitude
    atom = TorusField.constant(grid, vec)
    return ForceFieldModel(RENEWAL, grid, atoms=[atom, -1.0 * atom],
                           sobolev_index=sobolev_index)


def zero_renewal(grid: TorusGrid, sobolev_index: float = 6.0) -> ForceFieldModel:
    """Degenerate base law: the zero field (no forcing)."""
    return ForceFieldModel(RENEWAL, grid, atoms=[TorusField.zeros(grid, 1)],
                           sobolev_index=sobolev_index)


def ou_single_mode(grid: TorusGrid, amplitude: float, mode: int = 1,
                   axis: int = 0, clip_radius: float = 5.0,
                   sobolev_index: float = 6.0) -> ForceFieldModel:
    """OU model with the identity-like link clamp(u) amplitude cos(2 pi
    mode x_axis) e_axis."""
    def comp(*xs):
        out = np.zeros((grid.dim,) + grid.shape)
        out[axis] = amplitude * np.cos(2 * np.pi * mode * xs[axis])
        return out

    return ForceFieldModel(OU, grid,
                           link_field=TorusField.from_function(grid, 1, comp),
                           clip_radius=clip_radius,
                           sobolev_index=sobolev_index)


# -- sampling and paths -------------------------------------------------------


def sample_stationary(model: ForceFieldModel, seed) -> ForceSample:
    """Draw from the stationary law nu."""
    rng = as_generator(seed)
    if model.kind == RENEWAL:
        idx = model._draw_atom_index(rng)
        return ForceSample(model.atoms[idx], model.norm_bound)
    u = rng.standard_normal(1)
    return ForceSample(model.link(u), model.norm_bound, state=u.copy())


def _segment_of(n_breakpoints_at_or_before, last):
    """The segment holding a time t, given how many breakpoints are <= t:
    segment i is [times[i], times[i+1]) (right-continuous at breakpoints),
    clipped to [0, last].  The one rule of `ForcePath.segment_index` and
    of the `PathBlock` lookup table."""
    return np.clip(n_breakpoints_at_or_before - 1, 0, last)


@dataclass
class ForcePath:
    """One sampled trajectory t -> E(t, .), piecewise constant in time.

    `times` are the breakpoints (jump times for renewal, the uniform update
    grid for the OU construction); `samples[i]` is the value on
    [times[i], times[i+1]), right-continuous at breakpoints.  `jump_flags[i]`
    is True when the value at times[i] arose from a renewal jump.
    """

    model: ForceFieldModel
    times: np.ndarray
    samples: list
    jump_flags: np.ndarray = field(default=None)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def covers(self, a: float, b: float) -> bool:
        return self.t_start - _COVER_TOL <= a and b <= self.t_end + _COVER_TOL

    def segment_index(self, t) -> np.ndarray:
        return _segment_of(np.searchsorted(self.times, t, side="right"),
                           len(self.samples) - 1)

    def value_at(self, t: float) -> ForceSample:
        if not self.covers(t, t):
            raise ValueError(f"time {t} outside path span "
                             f"[{self.t_start}, {self.t_end}]")
        return self.samples[int(self.segment_index(t))]

    def shifted(self, offset: float) -> "ForcePath":
        """Same realization on a translated clock (times + offset)."""
        return ForcePath(self.model, self.times + offset, self.samples,
                         self.jump_flags)

    def segments_between(self, a: float, b: float):
        """Yield (t0, t1, sample) pieces covering [a, b]."""
        if b < a:
            raise ValueError("need a <= b")
        if not self.covers(a, b):
            raise ValueError("interval outside path span")
        i = int(self.segment_index(a))
        t = a
        while t < b - 1e-15:
            t_next = self.times[i + 1] if i + 1 < len(self.times) else b
            t1 = min(float(t_next), b)
            yield t, t1, self.samples[i]
            t = t1
            i += 1
        if a == b:
            yield a, b, self.samples[int(self.segment_index(a))]


def signed_entry(f: TorusField, fields: list, index_of: dict):
    """(index into `fields`, sign) of field f, where fields equal in value
    or equal up to sign are one entry; f is appended to `fields` unless it
    or its negation is there.  `index_of` maps the exact values of every
    entry to its index."""
    key = (f.space, f.values.shape, f.values.tobytes())
    negated = key[:2] + ((-f.values).tobytes(),)
    if negated in index_of:
        return index_of[negated], -1.0
    if key not in index_of:
        index_of[key] = len(fields)
        fields.append(f)
    return index_of[key], 1.0


class PathBlock:
    """The force paths of a block of R realizations, tabulated once so that
    one lookup per step finds every realization's values over the step.

    Path r's i-th segment holds `field_sign[r, i] * fields[field_index[r,
    i]]`.  Fields equal in value, or equal up to sign (the atoms +a and -a
    of a symmetric renewal law), are one entry of `fields` (`signed_entry`),
    so a step evaluates one field per distinct entry; negation is exact in
    floating point, so the signed values are bit for bit those of the
    negated field.
    Between two consecutive breakpoints of the block (of any of its paths)
    every path stays on one segment, so those segments are tabulated per
    interval and a lookup is one bisection of the breakpoints.
    """

    def __init__(self, paths):
        self.paths = list(paths)
        if not self.paths:
            raise ValueError("a path block needs at least one path")
        width = max(len(p.samples) for p in self.paths)
        self.field_index = np.zeros((self.size, width), dtype=np.intp)
        self.field_sign = np.ones((self.size, width))
        self.fields = []
        index_of = {}
        for r, p in enumerate(self.paths):
            for i, sample in enumerate(p.samples):
                self.field_index[r, i], self.field_sign[r, i] = \
                    signed_entry(sample.field, self.fields, index_of)
        # the span that every path covers, so that `covers` compares two
        # scalars
        self._span = (max(p.t_start for p in self.paths),
                      min(p.t_end for p in self.paths))
        # per interval [edges[j], edges[j + 1]) (the first also before it,
        # the last also after it): each run's field index and sign
        self._edges = sorted(set().union(*(p.times.tolist()
                                           for p in self.paths)))
        segments = _segment_of(np.stack(
            [np.searchsorted(p.times, self._edges, side="right")
             for p in self.paths], axis=1),
            np.array([len(p.samples) - 1 for p in self.paths]))
        rows = np.arange(self.size)
        self._which = self.field_index[rows, segments]
        self._sign = self.field_sign[rows, segments]

    @property
    def size(self) -> int:
        return len(self.paths)

    def covers(self, a: float, b: float) -> bool:
        start, end = self._span
        return start - _COVER_TOL <= a and b <= end + _COVER_TOL

    def pieces(self, t: float, dt: float):
        """The force of every run over [t, t + dt], cut at the block's
        breakpoints inside it: the cuts as offsets from t, 0 to dt
        ((P + 1,)), and one term (field, runs, signs) per field held in the
        step.  Run runs[k] (runs None: every run) feels signs[p, k] * field
        on piece p, 0 where it holds another field; the terms take
        O(P R) memory whatever the number of fields in the block."""
        lo = max(bisect.bisect_right(self._edges, t) - 1, 0)
        hi = max(bisect.bisect_left(self._edges, t + dt), lo + 1)
        cuts = np.array([0.0, *(e - t for e in self._edges[lo + 1:hi]), dt])
        which, sign = self._which[lo:hi], self._sign[lo:hi]
        if (which == which[0, 0]).all():
            return cuts, [(self.fields[which[0, 0]], None, sign)]
        terms = []
        for j in np.unique(which):
            held = which == j
            runs = np.flatnonzero(held.any(axis=0))
            terms.append((self.fields[j], runs,
                          np.where(held, sign, 0.0)[:, runs]))
        return cuts, terms


def generate_path(model: ForceFieldModel, horizon: float, dt_ou: float = 0.01,
                  *, seed, t_start: float = 0.0) -> ForcePath:
    """Stationary path on [t_start, t_start + horizon]."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = as_generator(seed)
    if model.kind == RENEWAL:
        times = [t_start]
        idx = model._draw_atom_index(rng)
        indices = [idx]
        t = t_start
        end = t_start + horizon
        while True:
            # inverse-CDF exponential(1) inter-jump times
            t = t + (-np.log1p(-rng.random()))
            if t >= end:
                break
            times.append(t)
            indices.append(model._draw_atom_index(rng))
        times.append(end)
        samples = [ForceSample(model.atoms[i], model.norm_bound) for i in indices]
        flags = np.zeros(len(samples), dtype=bool)
        flags[1:] = True
        return ForcePath(model, np.asarray(times), samples, flags)
    if dt_ou <= 0:
        raise ValueError("dt_ou must be positive for the OU construction")
    n = int(np.ceil(horizon / dt_ou))
    times = t_start + np.minimum(np.arange(n + 1) * dt_ou, horizon)
    u = rng.standard_normal(1)
    states = [u.copy()]
    decay = np.exp(-dt_ou)
    sd = np.sqrt(1.0 - decay**2)
    for _ in range(n - 1):
        u = decay * u + sd * rng.standard_normal(1)
        states.append(u.copy())
    samples = [ForceSample(model.link(s), model.norm_bound, state=s)
               for s in states]
    flags = np.zeros(len(samples), dtype=bool)
    return ForcePath(model, times, samples, flags)


# -- resolvents ----------------------------------------------------------------

# Gauss-Legendre nodes of the OU resolvent integral over s = e^-t in (0, 1)
_RESOLVENT_NODES = 200
_erfc = np.frompyfunc(math.erfc, 1, 1)


@cache
def _unit_gauss_legendre():
    """Nodes s, their complements 1 - s and weights of the rule on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(_RESOLVENT_NODES)
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x), 0.5 * w


def _positive_part_mean(z: np.ndarray) -> np.ndarray:
    """E[(Z + z)^+] = z Phi(z) + phi(z) for a standard normal Z."""
    cdf = 0.5 * _erfc(-z / math.sqrt(2.0)).astype(float)
    return z * cdf + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _ou_resolvent_coefficients(radius: float, u0: float, rates) -> list:
    """int_0^inf e^(-lam t) E[clamp(u_t, -R, R) | u_0 = u0] dt per rate.

    u_t = s u0 + sqrt(1 - s^2) Z with s = e^-t, and the clamp moves the mean
    of u_t by c = E[(-R - u_t)^+] - E[(u_t - R)^+], so the integral is
    u0 / (1 + lam) plus int_0^1 s^(lam - 1) c ds, taken by Gauss-Legendre.
    """
    s, comp, w = _unit_gauss_legendre()
    mean, sd = s * u0, np.sqrt(comp * (1.0 + s))
    shift = sd * (_positive_part_mean((-radius - mean) / sd)
                  - _positive_part_mean((mean - radius) / sd))
    return [u0 / (1.0 + lam) + float(np.sum(w * s ** (lam - 1.0) * shift))
            for lam in rates]


def resolvent_coefficients(model: ForceFieldModel, rates, state=None) -> list:
    """One scalar c_lam per rate lam in `rates`, with R_lam e = c_lam e for
    a renewal law (the closed form 1 / (1 + lam)) and R_lam e = c_lam times
    the link field for the OU law at state u (`_ou_resolvent_coefficients`,
    exact up to the Gauss-Legendre rule)."""
    if any(lam < 0 for lam in rates):
        raise ValueError("rates must be nonnegative")
    if model.kind == RENEWAL:
        return [1.0 / (1.0 + lam) for lam in rates]
    if state is None:
        raise ValueError("OU resolvents need the underlying state")
    return _ou_resolvent_coefficients(model.clip_radius, float(state[0]),
                                      rates)


def resolvent_apply(model: ForceFieldModel, rates,
                    sample: ForceSample) -> list:
    """Resolvents R_lam applied to the field observable at the given sample,
    one field per rate lam in `rates`; deterministic for both laws
    (`resolvent_coefficients`).  R_1 R_0 is R_0 - R_1 by the resolvent
    identity."""
    base = sample.field if model.kind == RENEWAL else model.link_field
    return [base * c for c in
            resolvent_coefficients(model, rates, sample.state)]
