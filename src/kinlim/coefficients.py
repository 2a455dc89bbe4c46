"""Limit-equation data: diffusion matrix, drift field, noise covariance.

The hydrodynamic limit of the forced kinetic dynamics is driven by three
objects built from the stationary law of the force field and its resolvents
R_lam (R_0(e) = e and R_1(e) = e/2 for the renewal construction, a closed
form in the Gaussian transition law for the OU construction; R_1 R_0 is
R_0 - R_1 by the resolvent identity):

* diffusion matrix field
    K(x) = Id + (1/2) E[ E (x)sym (R_0 E + (b-1) R_1 E) ](x),
  with b = 2 for jump collisions and b = 1 for velocity diffusion;
* drift vector field
    Theta(x) = (b/2) div E[ R_1 E (x)sym E ](x) + E[ (R_0 - R_1) E  div E ](x);
* covariance kernel
    H(i, x, j, y) = (1/2) E[ (R_0 E)_i(x) E_j(y) + (R_0 E)_j(y) E_i(x) ],
  whose integral operator is symmetric, nonnegative and trace class; its
  spectral square root generates the limit noise.

Here a (x)sym b = a (x) b + b (x) a.  Every expectation is a weighted sum
over nodes of the stationary law, sum_i w_i f(E_i), and no random stream is
drawn.  A renewal law's nodes are its atoms with their weights, so for a
law with finitely many atoms (the default two-point law among them) the
sums are the exact expectations.  The OU law's field is a function of the
one state u ~ N(0, 1), and its nodes are Gaussian quadrature nodes in u
(`OU_NODES`): Gauss-Legendre on [-R, R] and Gauss-Laguerre on each tail
beyond +/-R, split at the clamp's kink, exact to rounding.

Both estimators take one pass of n nodes E, their weights and their R_0 and
R_1 images (`draw_stationary`) as their only input, and go through the
nodes one at a time, so their memory does not grow with n.  The kernel is
discretised by grid quadrature (uniform weight M^-N).  Its weighted sum
(1/2)(R E^T + E R^T), with the nodes scaled by sqrt(w_i) as columns of R
and E, has rank at most 2n, so it is never formed: a thin QR [R E] = Q T
gives H = Q M Q^T with a small k x k matrix M, k = min(N M^N, 2n) (4 for
the two-point law), and the eigenfields are Q times the eigenvectors of M.
Rows of T at the QR's round-off level are cut first (a numerical rank
cut), so a rank-deficient kernel keeps the accuracy of a dense `eigh`.  The
estimate vanishes off the range of Q, so its smallest eigenvalue is the
smallest of M, or 0 when Q has fewer than N M^N columns; with the symmetry
of M it is what the nonnegativity check reads.  Eigenvalues below 1e-10
of the trace are dropped and the dropped tail is reported as a
modelling-error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .equilibrium import FP, LB, _check_collision, path_weighted_integral
from .forcing import (RENEWAL, ForceFieldModel, ForceSample, generate_path,
                      resolvent_apply, sample_stationary)
from .rng import SYMPOS_LHS, SYMPOS_RHS, substream
from .table import read_table, write_table
from .torus import TorusField, TorusGrid, divergence, matrix_divergence

COLLISION_FACTOR = {LB: 2.0, FP: 1.0}
# Significant digits of coefficients.csv and spectrum.csv: %.17g gives back
# every double, so later stages run on exactly the coefficients computed.
CONTRACT_DIGITS = 17
# Nodes of the OU stationary pass: Gauss-Legendre on [-R, R], and
# Gauss-Laguerre on each tail beyond +/-R.  Doubling both changes K, Theta
# and the leading eigenvalue at rounding level for R = 5 and R = 8.
OU_NODES = (64, 16)


@dataclass
class HydroCoefficients:
    """Diffusion matrix and drift of the limit equation."""

    diffusion: TorusField        # matrix field, symmetric and >= Id
    drift: TorusField            # vector field
    collision: str
    collision_factor: float      # 2 (jump) or 1 (velocity diffusion)
    r1_sym: TorusField           # matrix field E[R_1 E (x)sym E]


@dataclass
class CovOperator:
    """Noise covariance operator on vector fields, in spectral form."""

    grid: TorusGrid
    eigenvalues: np.ndarray      # kept eigenvalues, descending
    eigenfields: list            # orthonormal TorusField vectors
    trace: float
    dropped_tail: float          # trace mass of the dropped eigenvalues
    tol_eig: float
    # smallest eigenvalue of the whole weighted estimate and the largest
    # asymmetry of the small matrix diagonalised; a spectrum read back from
    # spectrum.csv keeps only positive eigenvalues and reads 0 for both
    min_eigenvalue: float = 0.0
    symmetry_gap: float = 0.0
    factors: tuple = field(default=None, repr=False)
    # (sqrt(w) R_0 E, sqrt(w) E) per node, (n, N*M^N) each; None when the
    # kept spectrum is all there is (read back from spectrum.csv)

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_nodes(self) -> int:
        """Stationary nodes behind the factors; 0 without factors."""
        return 0 if self.factors is None else len(self.factors[0])

    @property
    def qr_width(self) -> int:
        """Columns k = min(N*M^N, 2n) of the thin QR basis, n the nodes; 0
        without factors."""
        if self.factors is None:
            return 0
        return min(self.factors[0].shape[1], 2 * self.n_nodes)

    @cached_property
    def kernel(self) -> np.ndarray:
        """Dense (N*M^N, N*M^N) kernel values H, built on first read:
        (1/2) sum_i w_i (r_i e_i^T + e_i r_i^T) from the factors, else
        sum_k lambda_k z_k z_k^T from the kept spectrum.  No stage reads it;
        its readers are the tests and the benchmark's traced runs."""
        if self.factors is None:
            z = np.array([f.physical() for f in self.eigenfields]).reshape(
                self.rank, self.grid.dim * self.grid.size)
            return (z.T * self.eigenvalues) @ z
        r0, e = self.factors
        half = r0.T @ e
        return 0.5 * (half + half.T)

    def noise_fields(self) -> list:
        """sqrt(lambda_k) * zeta_k, the Wiener-expansion amplitudes."""
        return [np.sqrt(lam) * z for lam, z in
                zip(self.eigenvalues, self.eigenfields)]

    def noise_diagonal(self) -> TorusField:
        """Matrix field sum_k phi_k(x) phi_k(x)^T (pointwise noise strength)."""
        grid = self.grid
        vals = np.zeros((grid.dim, grid.dim) + grid.shape)
        for lam, z in zip(self.eigenvalues, self.eigenfields):
            zv = z.physical()
            vals += lam * zv[None, :] * zv[:, None]
        return TorusField(grid, 2, vals)


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x)sym b per grid point; inputs (N, grid), output (N, N, grid)."""
    return a[:, None] * b[None, :] + b[:, None] * a[None, :]


def _ou_nodes(radius: float):
    """States u and weights of a quadrature of the standard normal law,
    split at the clamp's kink: Gauss-Legendre on [-R, R] times the density
    phi, and on each tail u = +/-(R + t/R), t >= 0, Gauss-Laguerre, whose
    weight e^-t times phi(R) e^(-t^2 / 2R^2) / R is phi(u) du there."""
    n_mid, n_tail = OU_NODES
    x, w = np.polynomial.legendre.leggauss(n_mid)
    t, wt = np.polynomial.laguerre.laggauss(n_tail)
    tail = radius + t / radius

    def phi(u):
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    w_tail = wt * np.exp(-0.5 * (t / radius) ** 2) * phi(radius) / radius
    states = np.concatenate([-tail[::-1], radius * x, tail])
    weights = np.concatenate([w_tail[::-1], radius * w * phi(radius * x),
                              w_tail])
    return states, weights


@dataclass
class StationaryDraws:
    """Nodes E of the stationary law with one weight each, and their R_0
    and R_1 images: the one input of both estimators.  Each array is
    (n_nodes, N) + grid shape."""

    grid: TorusGrid
    e: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.weights)


def draw_stationary(model: ForceFieldModel,
                    grid: TorusGrid) -> StationaryDraws:
    """The stationary pass, with the resolvent images of its nodes: a
    renewal law's atoms with their weights, or the OU law's quadrature
    nodes in the state u (`_ou_nodes`).  Exact, and no stream is drawn."""
    if model.kind == RENEWAL:
        samples = (ForceSample(a, model.norm_bound) for a in model.atoms)
        weights = model.weights
    else:
        states, weights = _ou_nodes(model.clip_radius)
        samples = (ForceSample(model.link(u), model.norm_bound, state=u)
                   for u in states[:, None])
    e, r0, r1 = (np.empty((len(weights), grid.dim) + grid.shape)
                 for _ in range(3))
    for i, s in enumerate(samples):
        f0, f1 = resolvent_apply(model, (0.0, 1.0), s)
        e[i], r0[i], r1[i] = s.field.physical(), f0.physical(), f1.physical()
    return StationaryDraws(grid, e, r0, r1, weights)


def compute_coefficients(draws: StationaryDraws,
                         collision: str) -> HydroCoefficients:
    """Weighted sums over the stationary nodes of the limit diffusion
    matrix and drift fields, forming each node's terms once."""
    _check_collision(collision)
    b = COLLISION_FACTOR[collision]
    grid, n_dim = draws.grid, draws.grid.dim
    diff_sum = sym1_sum = drift2_sum = 0.0
    for w, ev, r0, r1 in zip(draws.weights, draws.e, draws.r0, draws.r1):
        sym1 = _sym_outer(r1, ev)
        diff = 0.5 * (_sym_outer(ev, r0) + (b - 1.0) * sym1)
        drift2 = (r0 - r1) * divergence(
            TorusField(grid, 1, ev)).physical()[None]
        diff_sum = diff_sum + w * diff
        sym1_sum = sym1_sum + w * sym1
        drift2_sum = drift2_sum + w * drift2

    eye = np.eye(n_dim).reshape((n_dim, n_dim) + (1,) * n_dim)
    # store the symmetrised sum (symmetric by construction up to round-off)
    diff_vals = eye + 0.5 * (diff_sum + np.swapaxes(diff_sum, 0, 1))
    r1_sym_field = TorusField(grid, 2, sym1_sum)
    drift_field = (b / 2.0) * matrix_divergence(r1_sym_field).physical() \
        + drift2_sum
    return HydroCoefficients(
        diffusion=TorusField(grid, 2, diff_vals),
        drift=TorusField(grid, 1, drift_field),
        collision=collision,
        collision_factor=b,
        r1_sym=r1_sym_field,
    )


def compute_cov_operator(draws: StationaryDraws) -> CovOperator:
    """Weighted kernel sum and its eigenpairs, from a thin QR of the
    sqrt(w)-scaled nodes and a small symmetric eigenproblem (module
    docstring)."""
    grid, n = draws.grid, draws.n_nodes
    dim = grid.dim * grid.size
    root = np.sqrt(draws.weights)[:, None]
    r0 = root * draws.r0.reshape(n, dim)
    e = root * draws.e.reshape(n, dim)
    q, t = np.linalg.qr(np.concatenate([r0, e]).T)
    # numerical rank cut: a row of T whose entries all sit below the QR's
    # round-off level carries no part of the nodes, only a direction of Q
    # that would leak that round-off into the eigenfields
    row_max = np.max(np.abs(t), axis=1)
    rows = row_max >= max(dim, 2 * n) * np.finfo(float).eps \
        * np.max(row_max)
    q, t = q[:, rows], t[rows]
    half = t[:, :n] @ t[:, n:].T
    small = 0.5 * (half + half.T)            # Q^T H Q
    weight = 1.0 / grid.size
    eigvals, eigvecs = np.linalg.eigh(small * weight)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    # the estimate is zero off the range of Q
    min_eig = float(eigvals[-1]) if q.shape[1] == dim \
        else min(float(eigvals[-1]), 0.0)
    # the scaled rows give w_i (r_i . e_i)
    trace = weight * float(np.einsum("ij,ij->i", r0, e).sum())
    tol_eig = abs(trace) * 1e-10
    if eigvals[-1] < -10.0 * max(tol_eig, 1e-300):
        raise ValueError("kernel estimate far from nonnegative")
    keep = eigvals > tol_eig
    dropped = float(np.sum(np.clip(eigvals[~keep], 0.0, None)))
    fields = []
    for vec in (q @ eigvecs[:, keep]).T:
        # sign rule: the first value above 1e-8 of the largest is positive
        big = np.abs(vec) > 1e-8 * np.max(np.abs(vec))
        vec = vec * (np.sqrt(grid.size) * np.sign(vec[np.argmax(big)]))
        fields.append(TorusField(grid, 1,
                                 vec.reshape((grid.dim,) + grid.shape)))
    return CovOperator(grid, eigvals[keep], fields, trace, dropped,
                       tol_eig, min_eig,
                       float(np.max(np.abs(small - small.T))), (r0, e))


# -- structural checks ------------------------------------------------------------


@dataclass
class EnhancementReport:
    """Pointwise positivity and consistency checks on the limit data."""

    min_eig_over_base: float       # min over x of eig(K(x) - Id)
    min_eig_over_noise: float      # min over x of eig(K(x) - Id - sum phi phi^T)
    strato_diffusion: TorusField   # Id + ((b-1)/2) E[R_1 E (x)sym E]
    consistency_gap: float         # max |K - Kstrato - sum phi phi^T|
    tolerance: float
    passed: bool


def _pointwise_min_eig(mat_vals: np.ndarray, grid: TorusGrid) -> float:
    flat = mat_vals.reshape(grid.dim, grid.dim, grid.size)
    mats = np.moveaxis(flat, -1, 0)
    return float(np.min(np.linalg.eigvalsh(mats)))


def verify_enhancement(coeffs: HydroCoefficients,
                       cov: CovOperator) -> EnhancementReport:
    """Check K >= Id, K >= Id + sum phi phi^T, and the Ito/Stratonovich split.

    A violation beyond tolerance yields passed=False rather than an
    exception, so callers can report the margins.
    """
    grid = coeffs.diffusion.grid
    tol = cov.dropped_tail + 1e-10
    eye = np.eye(grid.dim).reshape((grid.dim,) * 2 + (1,) * grid.dim)
    k_vals = coeffs.diffusion.physical()
    noise_diag = cov.noise_diagonal().physical()
    m1 = _pointwise_min_eig(k_vals - eye, grid)
    m2 = _pointwise_min_eig(k_vals - eye - noise_diag, grid)
    strato_vals = eye + 0.5 * (coeffs.collision_factor - 1.0) \
        * coeffs.r1_sym.physical()
    gap = float(np.max(np.abs(k_vals - strato_vals - noise_diag)))
    passed = (m1 >= -tol) and (m2 >= -tol) and (gap <= tol)
    return EnhancementReport(m1, m2, TorusField(grid, 2, strato_vals),
                             gap, tol, passed)


@dataclass
class SymposReport:
    """Both sides of the resolvent-covariance identity at one decay rate."""

    delta: float
    lhs: np.ndarray        # E[R_delta(E) (x)sym E] at grid points
    rhs: np.ndarray        # 2 delta E[(int e^{delta s} E ds)^(x)2]
    lhs_stderr: np.ndarray
    rhs_stderr: np.ndarray
    max_sigma_distance: float


def check_sympos_identity(model: ForceFieldModel, delta: float = 1.0,
                          n_paths: int = 10_000, n_mc: int = 2_000,
                          *, seed) -> SymposReport:
    """Monte Carlo of both sides of the stationary identity

        E[R_delta(E(0)) (x)sym E(0)] = 2 delta E[(int_-inf^0 e^(delta s) E(s) ds)^(x)2].

    The left side averages over stationary draws (exact for two-point laws);
    the right side integrates sampled paths over [-20, 0].  Both sides are
    taken at four points along the first axis.  Draws append SYMPOS_LHS or
    SYMPOS_RHS and the draw index to the key `seed`.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = model.grid
    t_trunc = 20.0
    pts = np.zeros((4, grid.dim))
    pts[:, 0] = np.array([0.0, 0.1, 0.2, 0.35])
    npts = pts.shape[0]
    n = grid.dim
    lhs_draws = np.empty((n_mc, npts, n, n))
    for i in range(n_mc):
        s = sample_stationary(model, substream(seed, SYMPOS_LHS, i))
        ev = s.field.eval_at(pts)
        rv = resolvent_apply(model, (delta,), s)[0].eval_at(pts)
        lhs_draws[i] = rv[:, :, None] * ev[:, None, :] \
            + ev[:, :, None] * rv[:, None, :]
    rhs_draws = np.empty((n_paths, npts, n, n))
    for p in range(n_paths):
        path = generate_path(model, t_trunc, t_start=-t_trunc,
                             seed=substream(seed, SYMPOS_RHS, p))
        integ = path_weighted_integral(path, pts, delta, -t_trunc, 0.0)
        rhs_draws[p] = 2.0 * delta * integ[:, :, None] * integ[:, None, :]
    lhs = lhs_draws.mean(axis=0)
    rhs = rhs_draws.mean(axis=0)
    lhs_se = lhs_draws.std(axis=0, ddof=1) / np.sqrt(n_mc)
    rhs_se = rhs_draws.std(axis=0, ddof=1) / np.sqrt(n_paths)
    denom = np.sqrt(lhs_se**2 + rhs_se**2) + 1e-12
    sigma = float(np.max(np.abs(lhs - rhs) / denom))
    return SymposReport(delta, lhs, rhs, lhs_se, rhs_se, sigma)


def closed_form_two_point_diffusion(amplitude: float, mode: int,
                                    collision: str, grid: TorusGrid
                                    ) -> TorusField:
    """Two-atom enumeration of the diffusion matrix for the default base law.

    With R_0(e) = e and R_1(e) = e/2, the matrix is
    Id + (1 + (b-1)/2) a^2 cos^2(2 pi k x) along the forced axis.
    """
    _check_collision(collision)
    b = COLLISION_FACTOR[collision]
    coef = 1.0 + (b - 1.0) / 2.0

    def mat(*xs):
        out = np.zeros((grid.dim, grid.dim) + grid.shape)
        for d in range(grid.dim):
            out[d, d] = 1.0
        out[0, 0] += coef * amplitude**2 * np.cos(2 * np.pi * mode * xs[0])**2
        return out

    return TorusField.from_function(grid, 2, mat)


# -- serialization -----------------------------------------------------------------


def coefficients_to_csv(coeffs: HydroCoefficients, path) -> None:
    grid = coeffs.diffusion.grid
    n = grid.dim
    header = [f"x{i}" for i in range(n)]
    header += [f"K{i}{j}" for i in range(n) for j in range(n)]
    header += [f"Theta{i}" for i in range(n)]
    header += [f"R1sym{i}{j}" for i in range(n) for j in range(n)]
    columns = [c.reshape(1, -1) for c in grid.coords()] + [
        f.physical().reshape(-1, grid.size)
        for f in (coeffs.diffusion, coeffs.drift, coeffs.r1_sym)]
    meta = dict(collision=coeffs.collision, b=repr(coeffs.collision_factor),
                dim=n, m=grid.m)  # b as "2.0", not "2"
    write_table(path, header, np.concatenate(columns).T, CONTRACT_DIGITS,
                meta)


def coefficients_from_csv(path) -> HydroCoefficients:
    """Coefficients as written by `coefficients_to_csv`."""
    meta, _, rows = read_table(path)
    n = int(meta["dim"])
    grid = TorusGrid(n, int(meta["m"]))
    mat, vec = (n, n) + grid.shape, (n,) + grid.shape
    diff, drift, r1s = np.split(np.array(rows, dtype=float).T[n:],
                                [n * n, n * n + n])
    return HydroCoefficients(
        TorusField(grid, 2, diff.reshape(mat)),
        TorusField(grid, 1, drift.reshape(vec)), meta["collision"],
        float(meta["b"]), TorusField(grid, 2, r1s.reshape(mat)))


def spectrum_to_csv(cov: CovOperator, path) -> None:
    grid = cov.grid
    header = ["k", "eigenvalue"] + [f"z{c}_{p}" for c in range(grid.dim)
                                    for p in range(grid.size)]
    rows = [[k, lam] + z.physical().reshape(-1).tolist()
            for k, (lam, z) in enumerate(zip(cov.eigenvalues,
                                             cov.eigenfields))]
    meta = dict(dim=grid.dim, m=grid.m, trace=cov.trace,
                dropped=cov.dropped_tail, tol=cov.tol_eig)
    write_table(path, header, rows, CONTRACT_DIGITS, meta)


def spectrum_from_csv(path) -> CovOperator:
    meta, header, rows = read_table(path)
    grid = TorusGrid(int(meta["dim"]), int(meta["m"]))
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    eigenvalues = data[:, 1]
    fields = [TorusField(grid, 1, vals.reshape((grid.dim,) + grid.shape))
              for vals in data[:, 2:]]
    # `kernel` comes from the kept spectrum (dropped tail reported)
    return CovOperator(grid, eigenvalues, fields,
                       float(meta["trace"]), float(meta["dropped"]),
                       float(meta["tol"]))
