"""Mixing random force fields on the torus.

Two constructions of a stationary, exponentially mixing, centred Markov field
t -> E(t, .) with values in a fixed ball of a Sobolev space:

* renewal: the field sits at a draw from a base law nu and is redrawn,
  independently, at the jump times of a rate-1 Poisson process.  For centred
  linear observables the semigroup is exp(-t) times the identity, so the
  resolvents have the closed forms R_lam(e) = e / (1 + lam).

* ou: a link map applied to an m-dimensional Ornstein-Uhlenbeck process
  dX = -X dt + sqrt(2) dB at equilibrium.  The link is a clipped linear
  combination of fixed band-limited vector fields, hence bounded and
  Lipschitz; resolvents are estimated by time-quadrature Monte Carlo.

The default base law is the symmetric two-point law on +/- a*cos(2 pi k0 x)
along one axis: it is centred, ball-bounded, and every second-moment
expectation can be enumerated over the two atoms, which gives the exact
oracles used by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def __init__(self, kind, grid, atoms=None, link_basis=None,
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
            if not link_basis:
                raise ValueError("ou model needs a link basis")
            self.link_basis = list(link_basis)
            self.ou_dim = len(self.link_basis)
            self.clip_radius = float(clip_radius)
            total = np.sqrt(sum(
                vector_sobolev_norm(b, self.sobolev_index) ** 2
                for b in self.link_basis))
            self.norm_bound = self.clip_radius * float(total)
            self._basis_values = np.stack([b.physical() for b in self.link_basis])

    # -- stationary sampling ------------------------------------------------

    def _clip(self, u: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(u)
        if r > self.clip_radius:
            return u * (self.clip_radius / r)
        return u

    def link(self, u: np.ndarray) -> TorusField:
        """OU link map: clipped linear combination of the basis fields."""
        cu = self._clip(np.asarray(u, dtype=float))
        vals = np.tensordot(cu, self._basis_values, axes=(0, 0))
        return TorusField(self.grid, 1, vals)

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
    """OU model with a one-dimensional, identity-like link map."""
    def comp(*xs):
        out = np.zeros((grid.dim,) + grid.shape)
        out[axis] = amplitude * np.cos(2 * np.pi * mode * xs[axis])
        return out

    basis = TorusField.from_function(grid, 1, comp)
    return ForceFieldModel(OU, grid, link_basis=[basis],
                           clip_radius=clip_radius,
                           sobolev_index=sobolev_index)


# -- sampling and paths -------------------------------------------------------


def sample_stationary(model: ForceFieldModel, seed) -> ForceSample:
    """Draw from the stationary law nu."""
    rng = as_generator(seed)
    if model.kind == RENEWAL:
        idx = model._draw_atom_index(rng)
        return ForceSample(model.atoms[idx], model.norm_bound)
    u = rng.standard_normal(model.ou_dim)
    return ForceSample(model.link(u), model.norm_bound, state=u.copy())


def _segment_of(n_breakpoints_at_or_before, last):
    """The segment holding a time t, given how many breakpoints are <= t:
    segment i is [times[i], times[i+1]) (right-continuous at breakpoints),
    clipped to [0, last].  The one rule of `ForcePath.segment_index` and
    `PathBlock.eval_at`."""
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


class PathBlock:
    """The force paths of a block of R realizations, tabulated once so that
    one lookup per time finds every realization's current value.

    `times[r]` is path r's breakpoints padded with +inf, and path r's i-th
    segment holds `field_sign[r, i] * fields[field_index[r, i]]`.  Fields
    equal in value, or equal up to sign (the atoms +a and -a of a symmetric
    renewal law), are one entry of `fields`, so each lookup evaluates one
    field per distinct entry; negation is exact in floating point, so the
    signed values are bit for bit those of the negated field.
    """

    def __init__(self, paths):
        self.paths = list(paths)
        if not self.paths:
            raise ValueError("a path block needs at least one path")
        width = max(len(p.times) for p in self.paths)
        self.times = np.full((self.size, width), np.inf)
        self.field_index = np.zeros((self.size, width - 1), dtype=np.intp)
        self.field_sign = np.ones((self.size, width - 1))
        self.last_segment = np.array([len(p.samples) - 1 for p in self.paths])
        self.t_end = np.array([p.t_end for p in self.paths])
        self.fields = []
        index_of = {}
        for r, p in enumerate(self.paths):
            self.times[r, :len(p.times)] = p.times
            for i, sample in enumerate(p.samples):
                self.field_index[r, i], self.field_sign[r, i] = \
                    self._entry(sample.field, index_of)

    def _entry(self, f: TorusField, index_of: dict):
        """(index into `fields`, sign) of field f; f is appended to `fields`
        unless it or its negation is there.  `index_of` maps the exact
        values of every entry to its index."""
        key = (f.space, f.values.shape, f.values.tobytes())
        negated = key[:2] + ((-f.values).tobytes(),)
        if negated in index_of:
            return index_of[negated], -1.0
        if key not in index_of:
            index_of[key] = len(self.fields)
            self.fields.append(f)
        return index_of[key], 1.0

    @property
    def size(self) -> int:
        return len(self.paths)

    def covers(self, a: float, b: float) -> bool:
        return bool((self.times[:, 0] - _COVER_TOL <= a).all()
                    and (b <= self.t_end + _COVER_TOL).all())

    def eval_at(self, t: float, points: np.ndarray) -> np.ndarray:
        """Force at time t at `points` (npts, dim), which come in R equal
        consecutive runs: run r feels path r.  Returns a new (npts, dim)
        array."""
        seg = _segment_of((self.times <= t).sum(axis=1), self.last_segment)
        rows = np.arange(self.size)
        which = self.field_index[rows, seg]
        sign = self.field_sign[rows, seg]
        runs = points.reshape(self.size, -1, points.shape[1])
        if (which == which[0]).all():
            out = self.fields[which[0]].eval_at(points).reshape(runs.shape)
        else:
            out = np.empty(runs.shape)
            for j in np.unique(which):
                sel = np.flatnonzero(which == j)
                vals = self.fields[j].eval_at(
                    runs[sel].reshape(-1, runs.shape[2]))
                out[sel] = vals.reshape((sel.size,) + runs.shape[1:])
        if (sign < 0).any():
            out *= sign[:, None, None]
        return out.reshape(points.shape)


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
    u = rng.standard_normal(model.ou_dim)
    states = [u.copy()]
    decay = np.exp(-dt_ou)
    sd = np.sqrt(1.0 - decay**2)
    for _ in range(n - 1):
        u = decay * u + sd * rng.standard_normal(model.ou_dim)
        states.append(u.copy())
    samples = [ForceSample(model.link(s), model.norm_bound, state=s)
               for s in states]
    flags = np.zeros(len(samples), dtype=bool)
    return ForcePath(model, times, samples, flags)


# -- resolvents ----------------------------------------------------------------


def _clip_rows(u: np.ndarray, radius: float) -> np.ndarray:
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return u * scale


def _ou_time_quadrature(model, sample, weight_fn, horizon, dt, n_replicates, rng):
    """Monte Carlo of integral weight(t) * E[E_t(e)] dt from the given state.

    Replicates run in antithetic pairs (mirrored Brownian increments), which
    removes the noise exactly while the clipping is inactive and leaves the
    Monte Carlo mean unbiased otherwise.
    """
    if sample.state is None:
        raise ValueError("OU resolvents need the underlying state")
    n = int(np.ceil(horizon / dt))
    decay = np.exp(-dt)
    sd = np.sqrt(1.0 - decay**2)
    up = np.tile(sample.state, (n_replicates, 1))
    um = up.copy()
    coef = weight_fn(0.0) * dt * _clip_rows(up[:1], model.clip_radius)[0]
    for step in range(1, n):
        xi = rng.standard_normal(up.shape)
        up = decay * up + sd * xi
        um = decay * um - sd * xi
        w = weight_fn(step * dt)
        if w == 0.0:
            continue
        mean_u = 0.5 * (_clip_rows(up, model.clip_radius).mean(axis=0)
                        + _clip_rows(um, model.clip_radius).mean(axis=0))
        coef += w * dt * mean_u
    vals = np.tensordot(coef, model._basis_values, axes=(0, 0))
    return TorusField(model.grid, 1, vals)


def resolvent_apply(model: ForceFieldModel, lam: float, sample: ForceSample,
                    seed, horizon: float = 40.0, dt: float = 0.05,
                    n_replicates: int = 256) -> TorusField:
    """Resolvent R_lam applied to the field observable at the given sample.

    Renewal: closed form e / (1 + lam).  OU: time-quadrature Monte Carlo of
    integral exp(-lam t) E[E_t(e)] dt over a finite horizon (default 40:
    the OU state decorrelates at rate 1, so the truncated tail is of order
    exp(-40), far below the Monte Carlo error).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if model.kind == RENEWAL:
        return sample.field * (1.0 / (1.0 + lam))
    rng = as_generator(seed)
    return _ou_time_quadrature(model, sample, lambda t: np.exp(-lam * t),
                               horizon, dt, n_replicates, rng)


def resolvent_r1r0_apply(model: ForceFieldModel, sample: ForceSample,
                         seed, horizon: float = 40.0, dt: float = 0.05,
                         n_replicates: int = 256) -> TorusField:
    """Composition R_1 R_0 applied to the field observable.

    Renewal closed form e/2.  For the OU construction, Fubini plus the Markov
    property turn the double time integral into a single quadrature with
    weight (1 - exp(-t)).
    """
    if model.kind == RENEWAL:
        return sample.field * 0.5
    rng = as_generator(seed)
    return _ou_time_quadrature(model, sample, lambda t: -np.expm1(-t),
                               horizon, dt, n_replicates, rng)

