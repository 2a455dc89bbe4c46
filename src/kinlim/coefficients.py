"""Limit-equation data: diffusion matrix, drift field, noise covariance.

The hydrodynamic limit of the forced kinetic dynamics is driven by three
objects built from the stationary law of the force field and its resolvents
R_lam (R_0(e) = e and R_1(e) = e/2 for the renewal construction):

* diffusion matrix field
    K(x) = Id + (1/2) E[ E (x)sym (R_0 E + (b-1) R_1 E) ](x),
  with b = 2 for jump collisions and b = 1 for velocity diffusion;
* drift vector field
    Theta(x) = (b/2) div E[ R_1 E (x)sym E ](x) + E[ R_1 R_0 E  div E ](x);
* covariance kernel
    H(i, x, j, y) = (1/2) E[ (R_0 E)_i(x) E_j(y) + (R_0 E)_j(y) E_i(x) ],
  whose integral operator is symmetric, nonnegative and trace class; its
  spectral square root generates the limit noise.

Here a (x)sym b = a (x) b + b (x) a.  All expectations are Monte Carlo
averages over stationary draws, with per-entry standard errors; for the
default two-point base law every second-moment average is deterministic, so
the estimates coincide with the two-atom enumeration exactly.

The kernel is discretised by grid quadrature (uniform weight M^-N), stored
dense, and eigendecomposed; eigenvalues below a noise floor are dropped and
the dropped tail is reported as a modelling-error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import FP, LB, _check_collision, path_weighted_integral
from .forcing import (ForceFieldModel, generate_path, resolvent_apply,
                      resolvent_r1r0_apply, sample_stationary)
from .rng import (R0, R1, R1R0, SAMPLE, STATIONARY, SYMPOS_LHS,
                  SYMPOS_RESOLVENT, SYMPOS_RHS, substream)
from .table import read_table, write_table
from .torus import TorusField, TorusGrid, divergence, matrix_divergence

COLLISION_FACTOR = {LB: 2.0, FP: 1.0}
MAX_KERNEL_DIM = 1024    # side N * M^N of the dense covariance kernel
# Significant digits of coefficients.csv and spectrum.csv: %.17g gives back
# every double, so later stages run on exactly the coefficients computed.
CONTRACT_DIGITS = 17


@dataclass
class HydroCoefficients:
    """Diffusion matrix and drift of the limit equation, with MC errors."""

    diffusion: TorusField        # matrix field, symmetric and >= Id
    drift: TorusField            # vector field
    collision: str
    collision_factor: float      # 2 (jump) or 1 (velocity diffusion)
    r1_sym: TorusField           # matrix field E[R_1 E (x)sym E]
    diffusion_stderr: np.ndarray
    drift_stderr: np.ndarray
    n_mc: int


@dataclass
class CovOperator:
    """Noise covariance operator on vector fields, in spectral form."""

    grid: TorusGrid
    kernel: np.ndarray           # (N*M^N, N*M^N) kernel values H
    eigenvalues: np.ndarray      # kept eigenvalues, descending
    eigenfields: list            # orthonormal TorusField vectors
    trace: float
    dropped_tail: float          # trace mass of the dropped eigenvalues
    tol_eig: float
    kernel_stderr: float         # Frobenius standard error of the kernel

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

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


def _centering_check(draws: np.ndarray, grid: TorusGrid):
    n = draws.shape[0]
    mean = draws.mean(axis=0)
    std = draws.std(axis=0, ddof=1) if n > 1 else np.zeros_like(mean)
    excess = np.abs(mean) - 5.0 * std / np.sqrt(n)
    if np.max(excess) > 1e-9:
        raise ValueError("empirical force law is not centred (beyond 5 sigma)")


def _stationary_draw(model: ForceFieldModel, seed, i: int, kw: dict):
    """Stationary draw i and its R0 image, from streams (seed, STATIONARY,
    SAMPLE | R0, i): the draws both estimators below share."""
    s = sample_stationary(model, substream(seed, STATIONARY, SAMPLE, i))
    return s, resolvent_apply(model, 0.0, s,
                              substream(seed, STATIONARY, R0, i), **kw)


def compute_coefficients(model: ForceFieldModel, collision: str,
                         grid: TorusGrid, n_mc: int, seed,
                         resolvent_kwargs: dict = None) -> HydroCoefficients:
    """Monte Carlo of the limit diffusion matrix and drift fields."""
    _check_collision(collision)
    if n_mc < 100:
        raise ValueError("need n_mc >= 100")
    b = COLLISION_FACTOR[collision]
    kw = resolvent_kwargs or {}
    n_dim = grid.dim
    e_draws = np.empty((n_mc, n_dim) + grid.shape)
    sym0 = np.empty((n_mc, n_dim, n_dim) + grid.shape)
    sym1 = np.empty_like(sym0)
    drift2 = np.empty((n_mc, n_dim) + grid.shape)
    key = (seed, STATIONARY)
    for i in range(n_mc):
        s, r0 = _stationary_draw(model, seed, i, kw)
        ev = s.field.physical()
        r1 = resolvent_apply(model, 1.0, s, substream(key, R1, i), **kw)
        r10 = resolvent_r1r0_apply(model, s, substream(key, R1R0, i), **kw)
        e_draws[i] = ev
        sym0[i] = _sym_outer(ev, r0.physical())
        sym1[i] = _sym_outer(r1.physical(), ev)
        drift2[i] = r10.physical() * divergence(s.field).physical()[None]
    _centering_check(e_draws, grid)

    eye = np.eye(n_dim).reshape((n_dim, n_dim) + (1,) * n_dim)
    diff_draws = eye[None] + 0.5 * (sym0 + (b - 1.0) * sym1)
    diff_vals = diff_draws.mean(axis=0)
    diff_se = diff_draws.std(axis=0, ddof=1) / np.sqrt(n_mc)
    # store the symmetrised average (symmetric by construction up to round-off)
    diff_vals = 0.5 * (diff_vals + np.swapaxes(diff_vals, 0, 1))
    r1_sym_field = TorusField(grid, 2, sym1.mean(axis=0))
    drift_field = (b / 2.0) * matrix_divergence(r1_sym_field).physical() \
        + drift2.mean(axis=0)
    # drift error: MC spread of the pointwise term; the divergence term's
    # spread is propagated through the same spectral derivative
    div_draws = np.empty_like(drift2)
    for i in range(n_mc):
        div_draws[i] = matrix_divergence(
            TorusField(grid, 2, sym1[i])).physical()
    drift_draws = (b / 2.0) * div_draws + drift2
    drift_se = drift_draws.std(axis=0, ddof=1) / np.sqrt(n_mc)
    return HydroCoefficients(
        diffusion=TorusField(grid, 2, diff_vals),
        drift=TorusField(grid, 1, drift_field),
        collision=collision,
        collision_factor=b,
        r1_sym=r1_sym_field,
        diffusion_stderr=diff_se,
        drift_stderr=drift_se,
        n_mc=n_mc,
    )


class KernelTooLarge(ValueError):
    """The grid's dense covariance kernel would exceed MAX_KERNEL_DIM."""


def check_kernel_size(grid: TorusGrid) -> None:
    dim = grid.dim * grid.size
    if dim > MAX_KERNEL_DIM:
        largest = 1 << int(np.log2(MAX_KERNEL_DIM / grid.dim) / grid.dim)
        raise KernelTooLarge(
            f"covariance kernel dimension {dim} (grid_m={grid.m} in "
            f"{grid.dim}-D) exceeds the dense-kernel cap {MAX_KERNEL_DIM}; "
            f"the largest grid allowed in {grid.dim}-D is grid_m={largest}")


def compute_cov_operator(model: ForceFieldModel, grid: TorusGrid, n_mc: int,
                         seed, resolvent_kwargs: dict = None) -> CovOperator:
    """Monte Carlo kernel estimate and dense symmetric eigendecomposition."""
    if n_mc < 100:
        raise ValueError("need n_mc >= 100")
    check_kernel_size(grid)
    dim = grid.dim * grid.size
    kw = resolvent_kwargs or {}
    acc = np.zeros((dim, dim))
    acc_sq = np.zeros((dim, dim))
    for i in range(n_mc):
        s, r0 = _stationary_draw(model, seed, i, kw)
        outer = np.outer(r0.physical().reshape(dim),
                         s.field.physical().reshape(dim))
        outer = 0.5 * (outer + outer.T)      # explicit symmetrisation
        acc += outer
        acc_sq += outer**2
    kernel = acc / n_mc
    kernel = 0.5 * (kernel + kernel.T)
    var = np.maximum(acc_sq / n_mc - (acc / n_mc) ** 2, 0.0) \
        * n_mc / max(n_mc - 1, 1)
    se_entries = np.sqrt(var / n_mc)
    weight = 1.0 / grid.size
    se_fro = float(np.sqrt(np.sum((se_entries * weight) ** 2)))
    op = kernel * weight                     # quadrature-weighted operator
    eigvals, eigvecs = np.linalg.eigh(op)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    trace = float(np.trace(op))
    tol_eig = abs(trace) * 1e-10 + 3.0 * se_fro
    if eigvals[-1] < -10.0 * max(tol_eig, 1e-300):
        raise ValueError("kernel estimate far from nonnegative; raise n_mc")
    keep = eigvals > tol_eig
    dropped = float(np.sum(np.clip(eigvals[~keep], 0.0, None)))
    fields = []
    for j in np.nonzero(keep)[0]:
        vec = eigvecs[:, j] * np.sqrt(grid.size)   # L^2-normalised
        fields.append(TorusField(grid, 1,
                                 vec.reshape((grid.dim,) + grid.shape)))
    return CovOperator(grid, kernel, eigvals[keep], fields, trace, dropped,
                       float(tol_eig), se_fro)


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
    tol = 10.0 * float(np.max(coeffs.diffusion_stderr)) \
        + 3.0 * cov.kernel_stderr + cov.dropped_tail + 1e-10
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
    taken at four points along the first axis.  Draws append SYMPOS_LHS,
    SYMPOS_RESOLVENT or SYMPOS_RHS and the draw index to the key `seed`.
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
        rv = resolvent_apply(model, delta, s, substream(
            seed, SYMPOS_RESOLVENT, i)).eval_at(pts)
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
                dim=n, m=grid.m, n_mc=coeffs.n_mc)  # b as "2.0", not "2"
    write_table(path, header, np.concatenate(columns).T, CONTRACT_DIGITS,
                meta)


def coefficients_from_csv(path) -> HydroCoefficients:
    """Coefficients as written by `coefficients_to_csv`; the file carries no
    standard errors, so those read as zero."""
    meta, _, rows = read_table(path)
    n = int(meta["dim"])
    grid = TorusGrid(n, int(meta["m"]))
    mat, vec = (n, n) + grid.shape, (n,) + grid.shape
    diff, drift, r1s = np.split(np.array(rows, dtype=float).T[n:],
                                [n * n, n * n + n])
    return HydroCoefficients(
        TorusField(grid, 2, diff.reshape(mat)),
        TorusField(grid, 1, drift.reshape(vec)), meta["collision"],
        float(meta["b"]), TorusField(grid, 2, r1s.reshape(mat)),
        np.zeros(mat), np.zeros(vec), int(meta["n_mc"]))


def spectrum_to_csv(cov: CovOperator, path) -> None:
    grid = cov.grid
    header = ["k", "eigenvalue"] + [f"z{c}_{p}" for c in range(grid.dim)
                                    for p in range(grid.size)]
    rows = [[k, lam] + z.physical().reshape(-1).tolist()
            for k, (lam, z) in enumerate(zip(cov.eigenvalues,
                                             cov.eigenfields))]
    meta = dict(dim=grid.dim, m=grid.m, trace=cov.trace,
                dropped=cov.dropped_tail, tol=cov.tol_eig,
                kse=cov.kernel_stderr)
    write_table(path, header, rows, CONTRACT_DIGITS, meta)


def spectrum_from_csv(path) -> CovOperator:
    meta, header, rows = read_table(path)
    grid = TorusGrid(int(meta["dim"]), int(meta["m"]))
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    eigenvalues = data[:, 1]
    fields = [TorusField(grid, 1, vals.reshape((grid.dim,) + grid.shape))
              for vals in data[:, 2:]]
    # reconstruct the kernel from the kept spectrum (dropped tail reported)
    kernel = (data[:, 2:].T * eigenvalues) @ data[:, 2:]
    return CovOperator(grid, kernel, eigenvalues, fields,
                       float(meta["trace"]), float(meta["dropped"]),
                       float(meta["tol"]), float(meta["kse"]))
