"""Periodic fields on the unit torus and their spectral calculus.

The torus is normalised to [0, 1)^N with Fourier basis exp(2*pi*i*k.x), so
the Laplacian eigenvalue of mode k is 4*pi^2*|k|^2.  Fields are sampled on a
uniform grid with M points per axis (M a power of two) and carry a rank:
scalar, vector (N components) or matrix (N x N components).  Derivatives are
spectral and therefore exact for band-limited data; all nonlinearities used
elsewhere in the package are pointwise products evaluated in physical space.

Field values are frozen after construction so instances can be shared freely
across workers.
"""

from __future__ import annotations

import numpy as np

_RANK_NAMES = {0: "scalar", 1: "vector", 2: "matrix"}

# Values per block of the blocked loops (particles x modes in
# `kinetic.moments`, realizations x grid values in the SPDE step): a float64
# block is 128 kB, so a block's temporaries stay cache-sized whatever the
# number of particles or realizations.
BLOCK_VALUES = 1 << 14


class TorusGrid:
    """Uniform periodic grid on [0, 1)^N."""

    def __init__(self, dim: int, points_per_axis: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        m = int(points_per_axis)
        if m < 4 or (m & (m - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 4")
        self.dim = int(dim)
        self.m = m
        self.spacing = 1.0 / m
        self.shape = (m,) * dim
        self.size = m**dim
        # integer wavenumbers per axis, numpy FFT ordering
        self._freq = np.fft.fftfreq(m, d=1.0 / m)

    def axis(self) -> np.ndarray:
        return np.arange(self.m) * self.spacing

    def coords(self):
        """Meshed coordinates, tuple of dim arrays of shape `self.shape`."""
        axes = [self.axis()] * self.dim
        return np.meshgrid(*axes, indexing="ij")

    def wavenumbers(self):
        """Meshed integer wavenumbers, tuple of dim arrays."""
        axes = [self._freq] * self.dim
        return np.meshgrid(*axes, indexing="ij")

    def laplace_symbol(self) -> np.ndarray:
        """4*pi^2*|k|^2 on the mode grid."""
        ks = self.wavenumbers()
        k2 = np.zeros(self.shape)
        for k in ks:
            k2 += k**2
        return 4.0 * np.pi**2 * k2

    def __eq__(self, other):
        return (
            isinstance(other, TorusGrid)
            and other.dim == self.dim
            and other.m == self.m
        )

    def __hash__(self):
        return hash((self.dim, self.m))

    def __repr__(self):
        return f"TorusGrid(dim={self.dim}, points_per_axis={self.m})"


class TorusField:
    """Discrete field on a TorusGrid.

    `values` has shape component_shape + grid_shape, where component_shape is
    () for rank 0, (N,) for rank 1 and (N, N) for rank 2.  The field is stored
    either in physical space (real values at grid points) or in spectral space
    (complex coefficients of exp(2*pi*i*k.x), numpy FFT mode ordering).
    """

    def __init__(self, grid: TorusGrid, rank: int, values: np.ndarray,
                 space: str = "physical"):
        if rank not in _RANK_NAMES:
            raise ValueError(f"rank must be 0, 1 or 2, got {rank}")
        if space not in ("physical", "spectral"):
            raise ValueError(f"unknown space {space!r}")
        comp = (grid.dim,) * rank
        expected = comp + grid.shape
        values = np.asarray(values)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape}, expected {expected}")
        if space == "physical":
            values = np.ascontiguousarray(values, dtype=float)
        else:
            values = np.ascontiguousarray(values, dtype=complex)
        values.flags.writeable = False
        self.grid = grid
        self.rank = rank
        self.values = values
        self.space = space
        self._spectral_cache = None
        self._waves = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_function(cls, grid: TorusGrid, rank: int, fn) -> "TorusField":
        """Sample fn(*coords) on the grid; fn returns component arrays."""
        out = np.asarray(fn(*grid.coords()), dtype=float)
        comp = (grid.dim,) * rank
        out = np.broadcast_to(out, comp + grid.shape)
        return cls(grid, rank, np.array(out))

    @classmethod
    def zeros(cls, grid: TorusGrid, rank: int = 0) -> "TorusField":
        comp = (grid.dim,) * rank
        return cls(grid, rank, np.zeros(comp + grid.shape))

    @classmethod
    def constant(cls, grid: TorusGrid, value) -> "TorusField":
        value = np.asarray(value, dtype=float)
        rank = value.ndim
        comp = (grid.dim,) * rank
        if value.shape != comp:
            raise ValueError("constant shape must match ()/(N,)/(N,N)")
        vals = np.broadcast_to(value.reshape(comp + (1,) * grid.dim),
                               comp + grid.shape)
        return cls(grid, rank, np.array(vals))

    # -- representation changes -------------------------------------------

    def _grid_axes(self):
        return tuple(range(self.rank, self.rank + self.grid.dim))

    def to_spectral(self) -> "TorusField":
        if self.space == "spectral":
            return self
        if self._spectral_cache is None:
            coef = np.fft.fftn(self.values, axes=self._grid_axes()) / self.grid.size
            self._spectral_cache = TorusField(self.grid, self.rank, coef,
                                              space="spectral")
        return self._spectral_cache

    def to_physical(self) -> "TorusField":
        if self.space == "physical":
            return self
        vals = np.fft.ifftn(self.values, axes=self._grid_axes()) * self.grid.size
        return TorusField(self.grid, self.rank, vals.real, space="physical")

    def spectrum(self) -> np.ndarray:
        return self.to_spectral().values

    def physical(self) -> np.ndarray:
        return self.to_physical().values

    # -- pointwise access ---------------------------------------------------

    def component(self, *idx) -> "TorusField":
        if len(idx) != self.rank:
            raise ValueError("component index must match rank")
        if self.rank == 0:
            return self
        return TorusField(self.grid, 0, np.array(self.physical()[idx]))

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Exact band-limited evaluation at arbitrary points in [0,1)^N.

        Sums the nonzero Fourier modes one at a time (angle, then cosine and
        sine terms, each component apart), elementwise and without BLAS, so
        the cost scales with the number of retained modes and memory with
        the number of points; this is intended for sparse (few-mode) fields.
        Returns an array of shape (npoints,) + component_shape.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.grid.dim:
            raise ValueError("points must have shape (npts, dim)")
        if self._waves is None:
            self._waves = _waves(*self._build_mode_cache())
        comp, c0, waves = self._waves
        out = np.tile(c0, (pts.shape[0], 1))
        for axes, ks, parts in waves:
            ang = pts[:, axes[0]] * ks[0]
            for d, k in zip(axes[1:], ks[1:]):
                ang += pts[:, d] * k
            ang *= 2 * np.pi
            for wave, terms in parts:
                vals = wave(ang)
                for j, c in terms:
                    out[:, j] += vals * c
        return out.reshape((pts.shape[0],) + comp) if comp else out[:, 0]

    def _build_mode_cache(self):
        """Real cos/sin representation over canonical (half-lattice) modes,
        after the rounding cut of `significant_modes` (so that a cosine
        field evaluates no sine series)."""
        coef = self.spectrum()
        comp = coef.shape[: self.rank]
        ncomp = int(np.prod(comp)) if comp else 1
        flat, _ = significant_modes(coef.reshape((ncomp, self.grid.size)))
        re, im = flat.real, flat.imag
        kgrid = np.stack([k.ravel() for k in self.grid.wavenumbers()],
                         axis=1).astype(int)
        m = self.grid.m
        c0 = re[:, 0]
        pair_idx, self_idx = [], []
        for idx in np.nonzero(flat.any(axis=0))[0]:
            k = kgrid[idx]
            if not k.any():
                continue
            if np.array_equal(k % m, (-k) % m):
                self_idx.append(idx)       # self-conjugate (Nyquist) mode
            else:
                nz = k[np.nonzero(k)[0][0]]
                if nz > 0:                 # canonical member of the +/- pair
                    pair_idx.append(idx)
        k_pair = kgrid[pair_idx].astype(float)
        re_p, im_p = re[:, pair_idx], im[:, pair_idx]
        k_self = kgrid[self_idx].astype(float)
        c_self = re[:, self_idx]
        return comp, c0, k_pair, re_p, im_p, k_self, c_self

    # -- arithmetic ---------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, TorusField):
            if other.grid != self.grid or other.rank != self.rank:
                raise ValueError("field mismatch in arithmetic")
            return TorusField(self.grid, self.rank,
                              op(self.physical(), other.physical()))
        return TorusField(self.grid, self.rank, op(self.physical(), other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return TorusField(self.grid, self.rank, self.physical() * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def scale_pointwise(self, scalar_field: "TorusField") -> "TorusField":
        """Multiply every component by a scalar field, pointwise."""
        if scalar_field.rank != 0 or scalar_field.grid != self.grid:
            raise ValueError("need a scalar field on the same grid")
        return TorusField(self.grid, self.rank,
                          self.physical() * scalar_field.physical())

    def __repr__(self):
        return (f"TorusField({_RANK_NAMES[self.rank]}, N={self.grid.dim}, "
                f"M={self.grid.m}, {self.space})")


def significant_modes(coef: np.ndarray):
    """The modes a spectrum holds above FFT rounding, and the dropped tail.

    Every real or imaginary part at most 1e-14 of the largest |c| (over all
    components) is rounding and is zeroed in the returned copy, so a field
    keeps only the modes it has and a cosine no sine part.  The second
    value is the largest |c - kept c| over that largest |c|.
    """
    top = max(float(np.abs(coef).max(initial=0.0)), 1e-300)
    tol = 1e-14 * top
    re, im = coef.real.copy(), coef.imag.copy()
    re[np.abs(re) <= tol] = 0.0
    im[np.abs(im) <= tol] = 0.0
    kept = re + 1j * im
    return kept, float(np.abs(coef - kept).max(initial=0.0)) / top


def _waves(comp, c0, k_pair, re_p, im_p, k_self, c_self):
    """The mode cache as `eval_at` sums it: (component shape, constant
    term, waves).  A wave is one mode: the axes with k_d != 0 and their k_d,
    then (cos or sin, [(component, coefficient)]) for each non-zero
    coefficient; a zero k_d or coefficient would add an exact zero."""
    modes = [(k, [(np.cos, 2.0 * re), (np.sin, -2.0 * im)])
             for k, re, im in zip(k_pair, re_p.T, im_p.T)]
    modes += [(k, [(np.cos, c)]) for k, c in zip(k_self, c_self.T)]
    waves = []
    for k, parts in modes:
        axes = [int(d) for d in np.flatnonzero(k)]
        parts = [(wave, [(int(j), float(coefs[j]))
                         for j in np.flatnonzero(coefs)])
                 for wave, coefs in parts]
        waves.append((axes, [float(k[d]) for d in axes],
                      [(wave, terms) for wave, terms in parts if terms]))
    return comp, c0, waves


# -- calculus ---------------------------------------------------------------


def gradient(f: TorusField) -> TorusField:
    """Spectral gradient of a scalar field; component i is d_i f."""
    if f.rank != 0:
        raise ValueError("gradient expects a scalar field")
    coef = f.spectrum()
    ks = f.grid.wavenumbers()
    out = np.empty((f.grid.dim,) + f.grid.shape, dtype=complex)
    for i in range(f.grid.dim):
        out[i] = 2j * np.pi * ks[i] * coef
    return TorusField(f.grid, 1, out, space="spectral").to_physical()


def divergence(f: TorusField) -> TorusField:
    """Spectral divergence of a vector field: sum_i d_i f_i."""
    if f.rank != 1:
        raise ValueError("divergence expects a vector field")
    coef = f.spectrum()
    ks = f.grid.wavenumbers()
    out = np.zeros(f.grid.shape, dtype=complex)
    for i in range(f.grid.dim):
        out += 2j * np.pi * ks[i] * coef[i]
    return TorusField(f.grid, 0, out, space="spectral").to_physical()


def matrix_divergence(f: TorusField) -> TorusField:
    """Row-wise divergence of a matrix field: out_i = sum_j d_j f_ij."""
    if f.rank != 2:
        raise ValueError("matrix_divergence expects a matrix field")
    coef = f.spectrum()
    ks = f.grid.wavenumbers()
    out = np.zeros((f.grid.dim,) + f.grid.shape, dtype=complex)
    for i in range(f.grid.dim):
        for j in range(f.grid.dim):
            out[i] += 2j * np.pi * ks[j] * coef[i, j]
    return TorusField(f.grid, 1, out, space="spectral").to_physical()


def laplacian(f: TorusField) -> TorusField:
    if f.rank != 0:
        raise ValueError("laplacian expects a scalar field")
    coef = f.spectrum() * (-f.grid.laplace_symbol())
    return TorusField(f.grid, 0, coef, space="spectral").to_physical()


def sobolev_norm(f: TorusField, s: float) -> float:
    """H^s norm: (sum_k (1 + 4 pi^2 |k|^2)^s |f_k|^2)^(1/2).

    Negative s gives the dual norms used for the density diagnostics.
    """
    if f.rank != 0:
        raise ValueError("sobolev_norm expects a scalar field")
    coef = f.spectrum()
    weight = (1.0 + f.grid.laplace_symbol()) ** s
    return float(np.sqrt(np.sum(weight * np.abs(coef) ** 2)))


def vector_sobolev_norm(f: TorusField, s: float) -> float:
    """Componentwise H^s norm of a vector field (root sum of squares)."""
    if f.rank != 1:
        raise ValueError("vector_sobolev_norm expects a vector field")
    total = 0.0
    for i in range(f.grid.dim):
        total += sobolev_norm(f.component(i), s) ** 2
    return float(np.sqrt(total))


def pairing(f: TorusField, g: TorusField) -> float:
    """Quadrature of the duality product integral(f*g) dx, scalar fields."""
    if f.rank != 0 or g.rank != 0:
        raise ValueError("pairing expects scalar fields")
    if f.grid != g.grid:
        raise ValueError("pairing requires a common grid")
    return float(np.sum(f.physical() * g.physical()) / f.grid.size)
