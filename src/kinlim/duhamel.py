"""Gridded mild solutions of the forced jump-collision dynamics (1-D).

Solves, on a fixed phase-space grid, the fixed point of the Duhamel formula

    f(t) = e^{-(t-t0)} f(t0) o Phi^{t0,t}
           + int_{t0}^t e^{-(t-s)} [rho(f(s)) M] o Phi^{s,t} ds,

where Phi^{s,t} traces the characteristic of (x' = v, v' = E(sigma, x))
ending at the grid node at time t back to time s.  This is the reference
("oracle") solver the particle engine is checked against; it is not meant to
scale beyond one space dimension.

Numerics: the horizon is marched in windows, split at the force path's jump
times so the field is smooth inside each window.  Within a window the only
unknowns are the spatial densities rho at the window midpoint and endpoint;
the source integral uses 4-point Gauss-Legendre with rho interpolated
quadratically in time through (start, mid, end), and the two unknowns are
Picard-iterated (contraction factor ~ window length).  Characteristics are
integrated by RK4, phase-space interpolation is tensor-cubic with periodic
padding in x, and the Maxwellian factor is evaluated analytically.

The continuous update conserves mass exactly (the flow is measure
preserving); on the grid, interpolation bias leaks mass at O(dx^4 + dv^4)
per window, so each window ends with the usual semi-Lagrangian conservative
rescaling back to the initial mass.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.interpolate import CubicSpline

from .equilibrium import maxwellian
from .forcing import ForcePath
from .torus import TorusGrid

_GAUSS4_NODES, _GAUSS4_WEIGHTS = np.polynomial.legendre.leggauss(4)
_FLOW_RATE = 8      # characteristic substeps per unit time


def _flow_backward(path: ForcePath, x, v, t_from: float, targets, n_sub: int):
    """Integrate the characteristics backwards from t_from to each target.

    `targets` must be sorted descending.  Returns a list of (x, v) pairs
    aligned with `targets`; x is left unwrapped (the field evaluation and all
    interpolations are periodic).
    """
    out = []
    t = t_from
    x = np.array(x, dtype=float)
    v = np.array(v, dtype=float)

    def accel(sigma, xs):
        return path.value_at(sigma).field.eval_at(
            np.mod(xs, 1.0).reshape(-1, 1)).reshape(xs.shape)

    for target in targets:
        span = t - target
        if span <= 1e-15:
            out.append((x.copy(), v.copy()))
            continue
        steps = max(int(np.ceil(n_sub * span)), 1)
        h = -span / steps
        for _ in range(steps):
            k1x, k1v = v, accel(t, x)
            k2x, k2v = v + 0.5 * h * k1v, accel(t + 0.5 * h, x + 0.5 * h * k1x)
            k3x, k3v = v + 0.5 * h * k2v, accel(t + 0.5 * h, x + 0.5 * h * k2x)
            k4x, k4v = v + h * k3v, accel(t + h, x + h * k3x)
            x = x + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
            t = t + h
        t = target
        out.append((x.copy(), v.copy()))
    return out


class _PhaseInterpolator:
    """Tensor-cubic interpolation of a gridded f, periodic in x, 0 off the v-box."""

    def __init__(self, f_grid: np.ndarray, x_axis: np.ndarray, v_axis: np.ndarray):
        pad = 3
        m = x_axis.size
        self._pad = pad
        self._dx = float(x_axis[1] - x_axis[0])
        self._v0 = float(v_axis[0])
        self._dv = float(v_axis[1] - v_axis[0])
        f_ext = np.concatenate([f_grid[m - pad:], f_grid, f_grid[:pad]], axis=0)
        self._coeffs = ndimage.spline_filter(f_ext, order=3,
                                             mode="grid-constant")

    def __call__(self, x, v):
        xi = np.mod(x, 1.0) / self._dx + self._pad
        vi = (v - self._v0) / self._dv
        out = ndimage.map_coordinates(
            self._coeffs, np.stack([xi.ravel(), vi.ravel()]), order=3,
            prefilter=False, mode="grid-constant", cval=0.0)
        return out.reshape(np.shape(x))


def _quadratic_weights(s, t0, tm, t1):
    """Lagrange basis weights at s for the nodes (t0, tm, t1)."""
    l0 = (s - tm) * (s - t1) / ((t0 - tm) * (t0 - t1))
    lm = (s - t0) * (s - t1) / ((tm - t0) * (tm - t1))
    l1 = (s - t0) * (s - tm) / ((t1 - t0) * (t1 - tm))
    return l0, lm, l1


def mild_lb_oracle(f0, x_grid: TorusGrid, v_axis: np.ndarray, path: ForcePath,
                   t_final: float, t_start: float = 0.0,
                   window: float = 0.05, tol: float = 1e-8,
                   max_sweeps: int = 50) -> np.ndarray:
    """March the mild solution from t_start to t_final on the phase grid.

    `f0` is either an array of shape (m, nv) or a callable f0(x, v) used for
    the first window (no interpolation error on analytic initial data).
    Raises RuntimeError if a window's Picard iteration fails to contract to
    `tol` within `max_sweeps` sweeps.
    """
    if x_grid.dim != 1:
        raise ValueError("the mild-solution oracle is one-dimensional")
    if t_final <= t_start:
        raise ValueError("need t_final > t_start")
    if not path.covers(t_start, t_final):
        raise ValueError("force path does not cover the solve horizon")
    x_axis = x_grid.axis()
    v_axis = np.asarray(v_axis, dtype=float)
    dv = v_axis[1] - v_axis[0]
    xm, vm = np.meshgrid(x_axis, v_axis, indexing="ij")

    # window edges: uniform refinement of the jump-free pieces
    edges = [t_start]
    for a, b, _ in path.segments_between(t_start, t_final):
        n = max(int(np.ceil((b - a) / window)), 1)
        edges.extend(np.linspace(a, b, n + 1)[1:])
    edges = np.array(edges)

    f_curr = None          # gridded f at the current window start
    f0_call = f0 if callable(f0) else None
    if f0_call is None:
        f_curr = np.asarray(f0, dtype=float)
        if f_curr.shape != (x_grid.m, v_axis.size):
            raise ValueError("f0 array must have shape (m, nv)")

    def rho_of(f_grid):
        return np.trapezoid(f_grid, dx=dv, axis=1)

    def mass_of(f_grid):
        return float(np.sum(f_grid)) * dv / x_grid.m

    mass0 = None

    def interp_rho(rho_vals, x_pts):
        spl = CubicSpline(np.append(x_axis, 1.0),
                          np.append(rho_vals, rho_vals[:1]),
                          bc_type="periodic")
        return spl(np.mod(x_pts, 1.0))

    for t0, t1 in zip(edges[:-1], edges[1:]):
        h = t1 - t0
        tm = 0.5 * (t0 + t1)
        # backward characteristics from the two targets down to t0,
        # recording the Gauss states on the way
        targets = {}
        for tau in (t1, tm):
            nodes = 0.5 * (tau - t0) * _GAUSS4_NODES + 0.5 * (tau + t0)
            wts = 0.5 * (tau - t0) * _GAUSS4_WEIGHTS
            order = np.argsort(nodes)[::-1]
            stop_times = list(nodes[order]) + [t0]
            states = _flow_backward(path, xm, vm, tau, stop_times, _FLOW_RATE)
            targets[tau] = {
                "nodes": nodes[order], "weights": wts[order],
                "states": states[:-1], "state_t0": states[-1],
            }

        # f(t0)-term of the Duhamel formula (independent of the unknowns)
        if f0_call is not None:
            f_start = f0_call(xm, vm)
            f_interp = lambda xs, vs: f0_call(np.mod(xs, 1.0), vs)
        else:
            f_start = f_curr
            f_interp = _PhaseInterpolator(f_curr, x_axis, v_axis)
        if mass0 is None:
            mass0 = mass_of(f_start)
        base = {}
        for tau in (t1, tm):
            x0s, v0s = targets[tau]["state_t0"]
            base[tau] = np.exp(-(tau - t0)) * f_interp(x0s, v0s)

        rho0 = rho_of(f_start)
        rho_m = rho0.copy()
        rho_1 = rho0.copy()

        def assemble(tau, rho_m_v, rho_1_v):
            acc = base[tau].copy()
            data = targets[tau]
            for s, w, (xs, vs) in zip(data["nodes"], data["weights"],
                                      data["states"]):
                l0, lm, l1 = _quadratic_weights(s, t0, tm, t1)
                rho_s = (l0 * interp_rho(rho0, xs)
                         + lm * interp_rho(rho_m_v, xs)
                         + l1 * interp_rho(rho_1_v, xs))
                acc += w * np.exp(-(tau - s)) * rho_s * \
                    maxwellian(vs[..., None])
            return acc

        converged = False
        for _ in range(max_sweeps):
            f_mid = assemble(tm, rho_m, rho_1)
            f_end = assemble(t1, rho_m, rho_1)
            new_m, new_1 = rho_of(f_mid), rho_of(f_end)
            resid = max(np.max(np.abs(new_m - rho_m)),
                        np.max(np.abs(new_1 - rho_1)))
            rho_m, rho_1 = new_m, new_1
            if resid < tol:
                converged = True
                break
        if not converged:
            raise RuntimeError(
                f"mild solve did not contract to {tol} in {max_sweeps} sweeps "
                f"on window [{t0}, {t1}]")
        f_curr = assemble(t1, rho_m, rho_1)
        f_curr *= mass0 / mass_of(f_curr)
        f0_call = None
    return f_curr
