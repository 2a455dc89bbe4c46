import tracemalloc

import numpy as np
import pytest

from kinlim.forcing import two_point_renewal
from kinlim.rng import substream
from kinlim.torus import (TorusField, TorusGrid, divergence, gradient,
                          laplacian, matrix_divergence, pairing,
                          significant_modes, sobolev_norm)


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


def band_limited(grid, rng, kmax=5):
    coef = np.zeros(grid.shape, dtype=complex)
    for _ in range(4):
        k = rng.integers(1, kmax + 1)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coef[k] += c
        coef[-k] += np.conj(c)
    coef[0] = rng.standard_normal()
    return TorusField(grid, 0, coef, space="spectral").to_physical()


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1, 3)
    with pytest.raises(ValueError):
        TorusGrid(1, 48)  # not a power of two
    g = TorusGrid(2, 8)
    assert g.size == 64
    assert g.spacing == 1.0 / 8


def test_round_trip_physical_spectral(grid):
    rng = np.random.default_rng(1)
    f = TorusField(grid, 0, rng.standard_normal(grid.shape))
    back = f.to_spectral().to_physical()
    rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
    assert rel < 1e-10


def test_real_fields_have_hermitian_spectra(grid):
    rng = np.random.default_rng(2)
    coef = TorusField(grid, 0, rng.standard_normal(grid.shape)).spectrum()
    k = np.fft.fftfreq(grid.m, d=1.0 / grid.m).astype(int)
    for i, ki in enumerate(k):
        # -k taken mod M so the Nyquist mode pairs with itself
        j = np.where(k % grid.m == (-ki) % grid.m)[0][0]
        assert coef[i] == pytest.approx(np.conj(coef[j]), abs=1e-14)


def test_gradient_of_constant_is_zero(grid):
    f = TorusField.constant(grid, 1.0)
    g = gradient(f)
    assert np.max(np.abs(g.values)) == pytest.approx(0.0, abs=1e-14)


def test_gradient_sin_analytic(grid):
    f = TorusField.from_function(grid, 0, lambda x: np.sin(2 * np.pi * x))
    g = gradient(f)
    exact = 2 * np.pi * np.cos(2 * np.pi * grid.axis())
    assert np.max(np.abs(g.values[0] - exact)) < 1e-8


def test_gradient_cos_squared_finite_difference_oracle():
    # d/dx cos(2 pi x)^2 against a fourth-order central stencil on a fine grid
    grid = TorusGrid(1, 1024)
    f = TorusField.from_function(grid, 0, lambda x: np.cos(2 * np.pi * x) ** 2)
    g = gradient(f).values[0]
    v = f.values
    fd = (8 * (np.roll(v, -1) - np.roll(v, 1))
          - (np.roll(v, -2) - np.roll(v, 2))) / (12 * grid.spacing)
    assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))


def test_divergence_constant_vector(grid):
    f = TorusField.constant(grid, np.array([2.5]))
    assert np.max(np.abs(divergence(f).values)) < 1e-14


def test_divergence_sin_analytic(grid):
    f = TorusField.from_function(
        grid, 1, lambda x: np.sin(2 * np.pi * x)[None, :])
    d = divergence(f)
    exact = 2 * np.pi * np.cos(2 * np.pi * grid.axis())
    assert np.max(np.abs(d.values - exact)) < 1e-8


def test_div_grad_equals_laplacian(grid):
    rng = np.random.default_rng(3)
    f = band_limited(grid, rng)
    lhs = divergence(gradient(f)).values
    rhs = laplacian(f).values
    scale = max(np.max(np.abs(rhs)), 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_sobolev_norm_constant(grid):
    f = TorusField.constant(grid, -3.0)
    for s in (-2.0, -1.0, 0.0, 1.5):
        assert sobolev_norm(f, s) == pytest.approx(3.0, rel=1e-12)


def test_sobolev_norm_cosine(grid):
    f = TorusField.from_function(grid, 0, lambda x: np.cos(2 * np.pi * x))
    assert sobolev_norm(f, 0.0) == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    expected = (1 / np.sqrt(2)) * (1 + 4 * np.pi**2) ** (-0.5)
    assert sobolev_norm(f, -1.0) == pytest.approx(expected, rel=1e-12)


def test_parseval(grid):
    rng = np.random.default_rng(4)
    f = band_limited(grid, rng)
    coef = f.spectrum()
    assert sobolev_norm(f, 0.0) ** 2 == pytest.approx(
        float(np.sum(np.abs(coef) ** 2)), rel=1e-10)


def test_pairing_values(grid):
    one = TorusField.constant(grid, 1.0)
    c = TorusField.from_function(grid, 0, lambda x: np.cos(2 * np.pi * x))
    s = TorusField.from_function(grid, 0, lambda x: np.sin(2 * np.pi * x))
    assert pairing(one, one) == pytest.approx(1.0, rel=1e-14)
    assert pairing(c, c) == pytest.approx(0.5, rel=1e-12)
    assert abs(pairing(c, s)) < 1e-12


def test_pairing_symmetric_bilinear(grid):
    rng = np.random.default_rng(5)
    f, g, h = (band_limited(grid, rng) for _ in range(3))
    assert pairing(f, g) == pytest.approx(pairing(g, f), rel=1e-12)
    lhs = pairing(f + 2.0 * g, h)
    rhs = pairing(f, h) + 2.0 * pairing(g, h)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_rank_errors(grid):
    vec = TorusField.zeros(grid, 1)
    scal = TorusField.zeros(grid, 0)
    with pytest.raises(ValueError):
        gradient(vec)
    with pytest.raises(ValueError):
        divergence(scal)
    with pytest.raises(ValueError):
        pairing(vec, vec)
    other = TorusField.zeros(TorusGrid(1, 32), 0)
    with pytest.raises(ValueError):
        pairing(scal, other)


def test_matrix_divergence_2d():
    grid = TorusGrid(2, 16)

    def mat(x, y):
        out = np.zeros((2, 2) + grid.shape)
        out[0, 0] = np.sin(2 * np.pi * x)
        out[1, 1] = np.cos(2 * np.pi * y)
        return out

    f = TorusField.from_function(grid, 2, mat)
    d = matrix_divergence(f)
    x, y = grid.coords()
    assert np.max(np.abs(d.values[0] - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-8
    assert np.max(np.abs(d.values[1] + 2 * np.pi * np.sin(2 * np.pi * y))) < 1e-8


def test_eval_at_matches_grid(grid):
    rng = np.random.default_rng(6)
    f = band_limited(grid, rng)
    pts = grid.axis()[:, None]
    vals = f.eval_at(pts)
    assert np.max(np.abs(vals - f.values)) < 1e-10
    # off-grid point against direct mode sum
    x = np.array([[0.1234]])
    coef = f.spectrum()
    k = np.fft.fftfreq(grid.m, d=1.0 / grid.m)
    direct = np.sum(coef * np.exp(2j * np.pi * k * 0.1234)).real
    assert f.eval_at(x)[0] == pytest.approx(direct, rel=1e-12)


def test_cosine_atom_has_no_sine_terms(grid):
    # FFT rounding leaves ~1e-17 imaginary parts on a cosine; they are
    # zeroed, so evaluation skips the sine series
    a = 0.5
    atom = two_point_renewal(grid, a).atoms[0]
    _, _, k_pair, _, im_p, _, _ = atom._build_mode_cache()
    assert k_pair.tolist() == [[1.0]]
    assert not im_p.any()
    x = np.random.default_rng(7).random((1000, 1))
    vals = atom.eval_at(x)[:, 0]
    assert np.max(np.abs(vals - a * np.cos(2 * np.pi * x[:, 0]))) < 1e-15


@pytest.mark.parametrize("sin_weight", [1.0, 1e-6])
def test_sine_terms_are_kept(grid, sin_weight):
    # a genuine sine part, even one 1e-6 of the cosine, is well above the
    # rounding tolerance
    f = TorusField.from_function(
        grid, 0, lambda x: np.cos(2 * np.pi * x)
        + sin_weight * np.sin(2 * np.pi * x))
    im_p = f._build_mode_cache()[4]
    assert im_p.any()
    x = np.random.default_rng(8).random((1000, 1))
    want = np.cos(2 * np.pi * x[:, 0]) + sin_weight * np.sin(2 * np.pi * x[:, 0])
    assert np.max(np.abs(f.eval_at(x) - want)) < 1e-15


def extended_mode_sum(field, pts):
    """sum_k c_k exp(2 pi i k.x) of a scalar field over the modes eval_at
    keeps (`significant_modes`), in long double arithmetic."""
    coef = significant_modes(field.spectrum().reshape(1, -1))[0][0]
    ks = np.stack([k.ravel() for k in field.grid.wavenumbers()], axis=1)
    two_pi = np.longdouble("6.28318530717958647692528676655900577")
    out = np.zeros(len(pts), dtype=np.longdouble)
    for idx in np.flatnonzero(coef):
        ang = two_pi * (pts.astype(np.longdouble) @ ks[idx])
        out += (np.longdouble(coef[idx].real) * np.cos(ang)
                - np.longdouble(coef[idx].imag) * np.sin(ang))
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("dim,m", [(1, 64), (2, 16)])
def test_eval_at_reduced_phase_is_accurate_for_every_mode(dim, m):
    # one mode a cos(2 pi k.x + phi) at a time, |k_d| up to m/2 - 1 along
    # the axes and the diagonals; the points lie on the lattice 2^-40 Z,
    # where k.x is exact, so the error is the rounding of 2 pi r (|r| <=
    # 1/2), of cos and sin, and of the products: at most 1.5e-15 |c|.  The
    # unreduced angle 2 pi k.x rounds to 2e-14 |c| at k = 30.
    grid = TorusGrid(dim, m)
    rng = substream(90, dim)
    pts = rng.integers(0, 2**40, (4000, dim)) / 2**40
    for k in range(1, m // 2):
        for kv in [(k,)] if dim == 1 else [(k, 0), (0, k), (k, k), (k, -k)]:
            phi = rng.uniform(0, 2 * np.pi)
            f = TorusField.from_function(
                grid, 0, lambda *xs: 0.7 * np.cos(
                    2 * np.pi * sum(kd * x for kd, x in zip(kv, xs)) + phi))
            out = np.empty(len(pts))
            assert f.eval_at(pts, out) is out
            top = np.abs(f.spectrum()).max()
            err = np.max(np.abs(out - extended_mode_sum(f, pts)))
            assert err <= 1.5e-15 * top, (kv, err / top)


def test_eval_at_fills_out_as_it_allocates():
    grid = TorusGrid(2, 16)
    f = TorusField.from_function(grid, 1, lambda x, y: np.stack(
        [np.cos(2 * np.pi * (x + y)), 0.3 + np.sin(2 * np.pi * (3 * x - y))]))
    pts = substream(91).random((500, 2))
    out = np.full((500, 2), np.nan)
    assert f.eval_at(pts, out=out) is out
    assert np.array_equal(out, f.eval_at(pts))
    with pytest.raises(ValueError, match="contiguous"):
        f.eval_at(pts, out=np.empty((2, 500)).T)


def test_many_mode_eval_at_memory_is_per_point():
    # every mode of a 1-D m=64 field (31 cosine/sine pairs and the Nyquist
    # cosine) at 2*10^4 points: the modes are summed one at a time, so the
    # call holds a few arrays of one value per point (160 kB each), not
    # the 2*10^4 x 31 angle, cosine and sine arrays (5 MB each)
    grid = TorusGrid(1, 64)
    f = TorusField(grid, 0, substream(81).standard_normal(64))
    pts = substream(82).random((20_000, 1))
    f.eval_at(pts[:1])  # mode cache built untraced
    tracemalloc.start()
    try:
        vals = f.eval_at(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    k = np.fft.fftfreq(grid.m, d=1.0 / grid.m)
    direct = (np.exp(2j * np.pi * pts * k) @ f.spectrum()).real
    assert np.max(np.abs(vals - direct)) < 1e-12 * np.max(np.abs(direct))
