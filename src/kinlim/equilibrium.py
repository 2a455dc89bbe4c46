"""Local equilibria of the forced collision dynamics and Gaussian identities.

With the space variable frozen, the velocity dynamics forced by a mixing
field E(t) admit a random invariant profile obtained by starting the flow in
the infinite past.  For jump (linear Boltzmann) collisions it is an
exponentially weighted mixture of shifted Maxwellians,

    M0(v) = integral_{-inf}^0 exp(s) M(v - W(s)) ds,  W(s) = integral_s^0 E(r) dr,

and for velocity diffusion (Fokker-Planck) collisions a single shifted
Maxwellian M(v - J) with J = integral_{-inf}^0 exp(r) E(r) dr.  Truncating
the time integral at -T costs at most exp(-T) in L^1.

The module also checks, by adaptive quadrature, the closed-form Gaussian
norms that control the distance between shifted Maxwellians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forcing import ForcePath

LB = "lb"  # jump collisions, redraw from the Maxwellian at rate one
FP = "fp"  # velocity Ornstein-Uhlenbeck collisions

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def maxwellian(v: np.ndarray) -> np.ndarray:
    """Standard Gaussian density on velocity space; v has shape (..., N)."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    return np.exp(-0.5 * np.sum(v**2, axis=-1)) / (2 * np.pi) ** (n / 2)


def _check_collision(collision: str) -> str:
    if collision not in (LB, FP):
        raise ValueError(f"collision must be '{LB}' or '{FP}'")
    return collision


# -- weighted path integrals ---------------------------------------------------


def path_weighted_integral(path: ForcePath, x: np.ndarray, rate: float,
                           a: float, b: float) -> np.ndarray:
    """integral_a^b exp(rate * s) E(s, x) ds, exact on piecewise-constant paths.

    Returns an array of shape (npoints, N) for x of shape (npoints, dim).
    """
    x = np.atleast_2d(x)
    total = None
    for t0, t1, sample in path.segments_between(a, b):
        if rate == 0.0:
            w = t1 - t0
        else:
            w = (np.exp(rate * t1) - np.exp(rate * t0)) / rate
        vals = sample.field.eval_at(x)
        total = vals * w if total is None else total + vals * w
    if total is None:
        total = np.zeros((x.shape[0], path.model.grid.dim))
    return total


# -- invariant velocity profiles -------------------------------------------------


def _velocity_mesh(v_grid, dim):
    axes = [np.asarray(v_grid, dtype=float)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)  # (..., dim)


def invariant_solution(path: ForcePath, collision: str, x,
                       v_grid: np.ndarray) -> np.ndarray:
    """Invariant velocity profile at position x, on the given velocity grid.

    The path must span [-T, 0] with T >= 5 so the start-up truncation error
    exp(-T) is below the quadrature tolerance; the returned profile is
    renormalised to unit mass on the grid.
    """
    _check_collision(collision)
    t_trunc = -path.t_start
    if t_trunc < 5.0:
        raise ValueError("path must start at t <= -5 (truncation error)")
    if path.t_end < 0.0:
        raise ValueError("path must cover [-T, 0]")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != 1:
        raise ValueError("one position at a time")
    dim = path.model.grid.dim
    vmesh = _velocity_mesh(v_grid, dim)
    dv = float(v_grid[1] - v_grid[0])

    if collision == FP:
        drift = path_weighted_integral(path, x, 1.0, path.t_start, 0.0)[0]
        prof = maxwellian(vmesh - drift)
    else:
        # Gauss-Legendre in s on each jump-free piece; the shift
        # W(s) = integral_s^0 E is linear in s within a piece.
        shifts, wts = [], []
        w_right = np.zeros(dim)  # W at the right end of the current piece
        pieces = list(path.segments_between(path.t_start, 0.0))
        for t0, t1, sample in reversed(pieces):
            e_val = sample.field.eval_at(x)[0]
            nodes = 0.5 * (t1 - t0) * _GAUSS_NODES + 0.5 * (t1 + t0)
            shifts.append(w_right[None, :] + (t1 - nodes)[:, None] * e_val)
            wts.append(0.5 * (t1 - t0) * _GAUSS_WEIGHTS * np.exp(nodes))
            w_right = w_right + (t1 - t0) * e_val
        shifts = np.concatenate(shifts)          # (nodes, dim)
        wts = np.concatenate(wts)                # (nodes,)
        shifted = vmesh[None, ...] - shifts.reshape(
            (len(wts),) + (1,) * dim + (dim,))
        prof = np.tensordot(wts, maxwellian(shifted), axes=(0, 0))
    mass = prof.sum() * dv**dim
    if mass <= 0:
        raise ValueError("profile mass vanished; enlarge the velocity grid")
    return prof / mass


def profile_moments(profile: np.ndarray, v_grid: np.ndarray):
    """(mass, mean, second moment matrix) of a gridded velocity profile."""
    v_grid = np.asarray(v_grid, dtype=float)
    dim = profile.ndim
    vmesh = _velocity_mesh(v_grid, dim)
    dv = float(v_grid[1] - v_grid[0])
    mass = profile.sum() * dv**dim
    mean = np.tensordot(profile, vmesh, axes=(tuple(range(dim)),
                                              tuple(range(dim)))) * dv**dim
    outer = vmesh[..., :, None] * vmesh[..., None, :]
    second = np.tensordot(profile, outer, axes=(tuple(range(dim)),
                                                tuple(range(dim)))) * dv**dim
    return mass, mean, second


# -- Gaussian identities ----------------------------------------------------------


@dataclass
class GaussianIdentityReport:
    """Quadrature versus closed forms for shifted Maxwellians."""

    w: np.ndarray
    z: np.ndarray
    weighted_norm_sq: float          # ||M(.-w)||^2 in L^2(M^{-1})
    weighted_norm_sq_exact: float    # exp(|w|^2)
    cross_norm_sq: float             # ||M(.-w) - M(.-z)||^2 in L^2(M^{-1})
    cross_norm_sq_exact: float       # exp(|w|^2) + exp(|z|^2) - 2 exp(w.z)
    l1_mass: float                   # ||M(.-w)||_L1, exactly 1
    l1_distance: float               # ||M(.-w) - M(.-z)||_L1
    l1_bound: float                  # 2 min [ |w-z| / (1-|w-z|)+ ]^(1/2)
    max_rel_error: float

    @property
    def l1_bound_holds(self) -> bool:
        return self.l1_distance <= self.l1_bound + 1e-9


def _iterated_quad(fn, dim, lo, hi, tol):
    """Adaptive quadrature of fn over [lo, hi]^dim (dim 1 or 2)."""
    from scipy import integrate   # only the identity checks integrate

    if dim == 1:
        val, _ = integrate.quad(lambda v: fn(np.array([v])), lo, hi,
                                epsabs=tol, epsrel=tol, limit=200)
        return val
    if dim == 2:
        def inner(v2):
            val, _ = integrate.quad(lambda v1: fn(np.array([v1, v2])), lo, hi,
                                    epsabs=tol, epsrel=tol, limit=200)
            return val
        val, _ = integrate.quad(inner, lo, hi, epsabs=tol * 10,
                                epsrel=tol * 10, limit=200)
        return val
    raise ValueError("quadrature implemented for dimensions 1 and 2")


def gaussian_identities_check(w, z, tol: float = 1e-10) -> GaussianIdentityReport:
    """Verify the Gaussian norm identities for shifts w, z with |.| <= 5."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if w.shape != z.shape:
        raise ValueError("w and z must have the same dimension")
    if np.linalg.norm(w) > 5 or np.linalg.norm(z) > 5:
        raise ValueError("shifts must satisfy |w|, |z| <= 5")
    dim = w.size
    # box wide enough for the densities M(v-2w) appearing in the weighted norms
    half = 8.0 + 2 * max(np.max(np.abs(w)), np.max(np.abs(z)))

    def mw(v):
        return maxwellian(v[None, :] - w)[0]

    def mz(v):
        return maxwellian(v[None, :] - z)[0]

    def minv(v):
        return maxwellian(v[None, :])[0]

    wn = _iterated_quad(lambda v: mw(v) ** 2 / minv(v), dim, -half, half, tol)
    cn = _iterated_quad(lambda v: (mw(v) - mz(v)) ** 2 / minv(v), dim,
                        -half, half, tol)
    l1m = _iterated_quad(mw, dim, -half, half, tol)
    l1d = _iterated_quad(lambda v: abs(mw(v) - mz(v)), dim, -half, half, tol)

    wn_exact = float(np.exp(np.dot(w, w)))
    cn_exact = float(np.exp(np.dot(w, w)) + np.exp(np.dot(z, z))
                     - 2 * np.exp(np.dot(w, z)))
    r = float(np.linalg.norm(w - z))
    bound = 2.0 if r >= 1.0 else min(2.0, np.sqrt(r / (1.0 - r))) if r > 0 else 0.0

    errs = [abs(wn - wn_exact) / wn_exact, abs(l1m - 1.0)]
    if cn_exact > 1e-13:
        errs.append(abs(cn - cn_exact) / cn_exact)
    else:
        errs.append(abs(cn - cn_exact))
    return GaussianIdentityReport(
        w=w, z=z,
        weighted_norm_sq=wn, weighted_norm_sq_exact=wn_exact,
        cross_norm_sq=cn, cross_norm_sq_exact=cn_exact,
        l1_mass=l1m, l1_distance=l1d, l1_bound=bound,
        max_rel_error=float(max(errs)),
    )
