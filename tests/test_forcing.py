import numpy as np
import pytest
from scipy import stats

from kinlim.equilibrium import LB
from kinlim.forcing import (ForceFieldModel, ForcePath, ForceSample, PathBlock,
                            constant_two_point_renewal, generate_path,
                            ou_single_mode, resolvent_apply,
                            sample_stationary, two_point_renewal,
                            zero_renewal)
from kinlim.kinetic import ParticleEnsemble, step_micro
from kinlim.rng import substream
from kinlim.torus import TorusField, TorusGrid, vector_sobolev_norm

A = 0.5


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def model(grid):
    return two_point_renewal(grid, A)


def test_two_point_sample_sup_norm(model):
    # both atoms have amplitude exactly A
    for seed in range(5):
        s = sample_stationary(model, seed)
        assert np.max(np.abs(s.field.physical())) == pytest.approx(A, rel=1e-12)


def test_sample_ball_bound(model):
    for seed in range(5):
        s = sample_stationary(model, seed)
        norm = vector_sobolev_norm(s.field, model.sobolev_index)
        assert norm <= s.norm_bound + 1e-12


def test_centred_law_requires_centring(grid):
    atom = TorusField.from_function(
        grid, 1, lambda x: np.cos(2 * np.pi * x)[None, :])
    with pytest.raises(ValueError):
        ForceFieldModel("renewal", grid, atoms=[atom])


def test_empirical_mean_clt_bound(model):
    # mean Fourier coefficient of n draws within 5 sigma / sqrt(n)
    n = 10_000
    rng = substream(11)
    signs = rng.choice([-1.0, 1.0], size=n)
    mean_field = signs.mean() * model.atoms[0].physical()
    coef = np.fft.fft(mean_field[0]) / model.grid.size
    sigma = A / np.sqrt(2)  # rms of each atom's nonzero coefficients
    assert np.max(np.abs(coef)) < 5 * sigma / np.sqrt(n)


def test_degenerate_law_zero_field(grid):
    m = zero_renewal(grid)
    s = sample_stationary(m, 3)
    assert np.max(np.abs(s.field.physical())) == 0.0
    path = generate_path(m, 5.0, seed=4)
    for sm in path.samples:
        assert np.max(np.abs(sm.field.physical())) == 0.0


def test_path_spans_and_right_continuity(model):
    path = generate_path(model, 10.0, seed=5)
    assert path.t_start == 0.0 and path.t_end == pytest.approx(10.0)
    # value at a jump time equals the post-jump sample
    if len(path.times) > 2:
        tj = float(path.times[1])
        post = path.samples[1].field.physical()
        assert np.array_equal(path.value_at(tj).field.physical(), post)


def test_jump_count_poisson_moments(model):
    horizon, n_paths = 10.0, 10_000
    counts = np.empty(n_paths)
    for p in range(n_paths):
        path = generate_path(model, horizon, seed=substream(6, p))
        counts[p] = int(path.jump_flags.sum())
    assert abs(counts.mean() - horizon) < 0.05 * horizon
    assert abs(counts.var(ddof=1) - horizon) < 0.05 * horizon


def test_marginal_stationarity_ks(model):
    # coefficient draws at t=0 versus t=T follow the same law
    n = 10_000
    at0 = np.empty(n)
    atT = np.empty(n)
    x0 = np.array([[0.05]])
    for p in range(n):
        path = generate_path(model, 3.0, seed=substream(8, p))
        at0[p] = path.value_at(0.0).field.eval_at(x0)[0, 0]
        atT[p] = path.value_at(3.0).field.eval_at(x0)[0, 0]
    assert stats.ks_2samp(at0, atT).pvalue > 0.01


def lag_products(model, lag, n, seed):
    """E(lag, 0) E(0, 0) on n stationary paths; path p from (seed, 7, p)."""
    x = np.array([[0.0]])
    out = np.empty(n)
    for p in range(n):
        path = generate_path(model, max(lag, 0.01),
                             seed=substream(seed, 7, p))
        out[p] = path.value_at(lag).field.eval_at(x)[0, 0] \
            * path.value_at(0.0).field.eval_at(x)[0, 0]
    return out


def test_renewal_mixing_decay(model):
    # lag-t covariance of a fixed coefficient decays like exp(-t)
    n = 4000
    c0 = lag_products(model, 0.0, n, seed=21).mean()
    for lag in (0.5, 1.0, 2.0):
        prods = lag_products(model, lag, n, seed=22)
        expected = np.exp(-lag) * A**2
        se = prods.std(ddof=1) / np.sqrt(n)
        assert abs(prods.mean() - expected) < 3 * se
    assert c0 == pytest.approx(A**2, rel=1e-12)


def test_renewal_resolvent_closed_forms(model):
    e = sample_stationary(model, 9)
    r0, r1 = resolvent_apply(model, (0.0, 1.0), e)
    [r10] = resolvent_apply(model, (1.0,), ForceSample(r0, e.norm_bound))
    assert np.array_equal(r0.physical(), e.field.physical())
    assert np.array_equal(r1.physical(), 0.5 * e.field.physical())
    # resolvent identity R1 R0 = R0 - R1, exact
    assert np.array_equal(r10.physical(), r0.physical() - r1.physical())


def test_resolvent_zero_field_and_negative_lambda(grid, model):
    z = sample_stationary(zero_renewal(grid), 0)
    [r] = resolvent_apply(zero_renewal(grid), (2.0,), z)
    assert np.max(np.abs(r.physical())) == 0.0
    e = sample_stationary(model, 1)
    with pytest.raises(ValueError):
        resolvent_apply(model, (1.0, -0.5), e)


def test_path_errors(model):
    with pytest.raises(ValueError):
        generate_path(model, 0.0, seed=1)
    path = generate_path(model, 1.0, seed=1)
    with pytest.raises(ValueError):
        path.value_at(2.0)


# -- OU construction ----------------------------------------------------------


@pytest.fixture
def ou_model(grid):
    return ou_single_mode(grid, A, clip_radius=6.0)


def test_ou_sample_bound_and_centred(ou_model):
    draws = [sample_stationary(ou_model, s) for s in range(200)]
    for s in draws[:5]:
        assert vector_sobolev_norm(s.field, ou_model.sobolev_index) \
            <= ou_model.norm_bound + 1e-9
    x = np.array([[0.0]])
    coefs = np.array([s.field.eval_at(x)[0, 0] for s in draws])
    assert abs(coefs.mean()) < 5 * coefs.std(ddof=1) / np.sqrt(len(coefs))


def test_ou_autocovariance_exponential(ou_model):
    # identity-like link: lag-t autocovariance of the coefficient ~ exp(-t)*var
    n, lag = 3000, 1.0
    x = np.array([[0.0]])
    prods = np.empty(n)
    for p in range(n):
        path = generate_path(ou_model, lag, dt_ou=0.02, seed=substream(31, p))
        v0 = path.value_at(0.0).field.eval_at(x)[0, 0]
        vt = path.value_at(lag).field.eval_at(x)[0, 0]
        prods[p] = v0 * vt
    var = A**2  # coefficient at x=0 is A * u with u standard normal
    se = prods.std(ddof=1) / np.sqrt(n)
    assert abs(prods.mean() - np.exp(-lag) * var) < 3 * se + 0.05 * var


def test_ou_resolvent_identity(ou_model):
    # R0 - R1 = int (1 - e^-t) E[clamp(u_t)] dt = u0 a / 2 plus the clamp's
    # share; at radius 6 and this draw's u0 = 0.85 that share is 7.7e-10 of
    # u0 a / 2, so the clip-inactive identity is checked to 1e-8 relative
    e = sample_stationary(ou_model, 41)
    u0 = e.state[0]
    assert abs(u0) < 2.0
    r0, r1 = resolvent_apply(ou_model, (0.0, 1.0), e)
    basis = ou_model.link_field.physical()
    diff = r0.physical() - r1.physical()
    assert np.max(np.abs(diff - 0.5 * u0 * basis)) \
        <= 1e-8 * np.max(np.abs(0.5 * u0 * basis))


def ou_sample(model, u0):
    """The OU draw at state u0."""
    state = np.array([u0])
    return ForceSample(model.link(state), model.norm_bound, state=state)


def clamped_ou_resolvent_reference(radius, u0, rates, n_tau=20_000,
                                   n_x=4_000):
    """int_0^inf e^(-lam t) E[clamp(u_t, -R, R)] dt with u_t ~ N(e^-t u0,
    1 - e^-2t), by quadrature alone: the trapezoid rule over x = mean + sd z,
    z in [-12, 12], against the Gaussian density, then over t = tau^2,
    tau in [0, 7] (e^-49 truncates the tail)."""
    z = np.linspace(-12.0, 12.0, n_x)
    wz = np.full(n_x, z[1] - z[0]) * np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)
    wz[[0, -1]] *= 0.5
    tau = np.linspace(0.0, 7.0, n_tau)
    wt = np.full(n_tau, tau[1] - tau[0]) * 2 * tau     # dt = 2 tau dtau
    wt[[0, -1]] *= 0.5
    t = tau**2
    mean_clamped = np.empty(n_tau)
    for a in range(0, n_tau, 500):
        tt = t[a:a + 500, None]
        x = np.exp(-tt) * u0 + np.sqrt(-np.expm1(-2 * tt)) * z
        mean_clamped[a:a + 500] = np.clip(x, -radius, radius) @ wz
    return [float(np.sum(wt * np.exp(-lam * t) * mean_clamped))
            for lam in rates]


@pytest.mark.parametrize("u0", [5.5, 7.0])
def test_ou_resolvent_matches_quadrature_reference_clip_active(grid, u0):
    # states past the clip radius 5: the closed form (erfc, Gauss-Legendre)
    # against an independent quadrature of the clamped Gaussian mean
    model = ou_single_mode(grid, A)
    rates = (0.0, 1.0, 2.0)
    sample = ou_sample(model, u0)
    basis = model.link_field.physical()
    refs = clamped_ou_resolvent_reference(5.0, u0, rates)
    for field, ref in zip(resolvent_apply(model, rates, sample), refs):
        assert np.max(np.abs(field.physical() - ref * basis)) \
            <= 1e-6 * abs(ref) * np.max(np.abs(basis))
    # the clamp is felt: R_0 falls short of the unclamped u0
    assert refs[0] < u0 - 0.04


def test_ou_resolvent_without_clip_is_linear(grid):
    # at radius 50 the clamp is never felt: R_lam e = u0 / (1 + lam) basis
    model = ou_single_mode(grid, A, clip_radius=50.0)
    basis = model.link_field.physical()
    for u0 in (-0.73, 2.0, 7.0):
        rates = (0.0, 1.0, 2.0)
        for lam, field in zip(rates, resolvent_apply(model, rates,
                                                     ou_sample(model, u0))):
            exact = u0 / (1 + lam) * basis
            assert np.max(np.abs(field.physical() - exact)) \
                <= 1e-12 * np.max(np.abs(exact))


def test_empirical_fourier_estimator_is_exact_sum(model):
    # the spectral density estimator equals the direct characteristic sum
    from kinlim.kinetic import _empirical_modes
    grid = model.grid
    rng = substream(62)
    n = 500
    pos, w = rng.random((n, 1)), np.full(n, 1.0 / n)
    coef = _empirical_modes(grid, pos, w[:, None], 5)[0]
    for k in (0, 1, 3, 5):
        direct = np.sum(w * np.exp(-2j * np.pi * k * pos[:, 0]))
        assert coef[k] == pytest.approx(direct, abs=1e-12)
    assert abs(coef[6]) < 1e-15  # beyond the retained band


@pytest.mark.parametrize("dim, m, kmax", [(1, 16, 3), (1, 16, 40),
                                          (2, 8, 2), (2, 8, 9)])
def test_empirical_fourier_estimator_every_rank_is_exact_sum(dim, m, kmax,
                                                             monkeypatch):
    # every value column gives the direct sum sum_i v_i exp(-2 pi i k.x_i)
    # on the band max_d |k_d| <= min(kmax, m/2 - 1) (kmax 40 and 9 are
    # clamped) and exactly zero outside it; `moments` gives rho and every
    # component of J on its band max_d |k_d| <= m/4,
    # and the totals sum_i w_i |v_i|^p.  The 200 particles make one block,
    # then, with 100 values per block, 8 to 67 blocks (the last part-filled
    # for three of the four grids).
    from kinlim import kinetic
    from kinlim.kinetic import _empirical_modes, moments
    grid = TorusGrid(dim, m)
    rng = substream(63, dim, kmax)
    n = 200
    ens = ParticleEnsemble(rng.random((n, dim)), rng.standard_normal((n, dim)),
                           rng.random(n) / n, 0.5)
    ks = np.stack([k.ravel() for k in grid.wavenumbers()], axis=1)
    phase = np.exp(-2j * np.pi * (ens.positions @ ks.T))  # (n, m^dim)
    w, v = ens.weights, ens.velocities
    per_rank = [w, w[:, None] * v,
                w[:, None, None] * v[:, :, None] * v[:, None, :]]
    direct = [np.tensordot(x, phase, axes=(0, 0)) for x in per_rank]
    want = np.concatenate([d.reshape(-1, ks.shape[0]) for d in direct])
    for block_values in (kinetic.BLOCK_VALUES, 100):
        monkeypatch.setattr(kinetic, "BLOCK_VALUES", block_values)
        raw = _empirical_modes(grid, ens.positions, np.concatenate(
            [x.reshape(n, -1) for x in per_rank], axis=1), kmax)
        assert raw.shape == (1 + dim + dim**2,) + grid.shape
        flat = raw.reshape(len(raw), -1)
        band = np.max(np.abs(ks), axis=1) <= min(kmax, m // 2 - 1)
        assert 0 < band.sum() < band.size
        assert np.max(np.abs(flat[:, band] - want[:, band])) < 1e-12
        assert np.all(flat[:, ~band] == 0)
        est = moments(ens, grid)
        band = np.max(np.abs(ks), axis=1) <= m // 4
        for fld, d in zip((est.rho, est.current), direct):
            coef = fld.spectrum().reshape(d.shape)
            assert np.max(np.abs(coef[..., band] - d[..., band])) < 1e-12
            assert np.max(np.abs(coef[..., ~band])) < 1e-15
        speeds = np.linalg.norm(v, axis=1)
        assert np.allclose(est.totals, [np.sum(w * speeds**p)
                                        for p in range(4)], rtol=1e-14, atol=0)


def constant_path(model, field, horizon=1.0):
    """A path that sits at one field over [0, horizon]."""
    return ForcePath(model, np.array([0.0, horizon]),
                     [ForceSample(field, model.norm_bound)])


def count_eval_calls(monkeypatch):
    calls = []
    orig = TorusField.eval_at

    def counted(self, points, out=None):
        calls.append(points.shape[0])
        return orig(self, points, out)
    monkeypatch.setattr(TorusField, "eval_at", counted)
    return calls


def test_path_block_evaluates_a_field_and_its_negation_once(monkeypatch,
                                                            model):
    # realizations on +a and -a share one entry of `fields`; each step makes
    # one evaluation on all particles, and run 1 feels it negated
    plus, minus = model.atoms
    paths = [constant_path(model, plus), constant_path(model, minus)]
    block = PathBlock(paths)
    assert block.fields == [plus]
    assert block.field_sign[:, 0].tolist() == [1.0, -1.0]
    n, dt = 40, 0.01
    pos = substream(40).random((2 * n, 1))
    ens = ParticleEnsemble(pos, np.zeros(pos.shape), np.full(2 * n, 1.0 / n),
                           1.0)
    calls = count_eval_calls(monkeypatch)
    for step in range(5):
        ens = step_micro(ens, block, dt, substream(41, step), LB)
    assert calls == [2 * n] * 5
    cuts, terms = block.pieces(0.3, 0.1)
    assert cuts.tolist() == [0.0, 0.1]
    assert len(terms) == 1 and terms[0][0] is plus and terms[0][1] is None
    assert terms[0][2].tolist() == [[1.0, -1.0]]


def test_path_block_keeps_other_fields_apart(monkeypatch, grid, model):
    # a field equal to neither +a nor -a is an entry of its own, evaluated
    # on the particles of its run only
    plus, minus = model.atoms
    other = TorusField.from_function(
        grid, 1, lambda x: np.sin(2 * np.pi * x)[None])
    paths = [constant_path(model, f) for f in (minus, other, plus)]
    block = PathBlock(paths)
    assert block.fields == [minus, other]
    assert block.field_index[:, 0].tolist() == [0, 1, 0]
    assert block.field_sign[:, 0].tolist() == [1.0, 1.0, -1.0]
    n, dt = 30, 0.02
    pos = substream(42).random((3 * n, 1))
    ens = ParticleEnsemble(pos, np.zeros(pos.shape), np.full(3 * n, 1.0 / n),
                           1.0, time=0.5)
    stay = substream(43).random(3 * n) >= -np.expm1(-dt)
    calls = count_eval_calls(monkeypatch)
    vel = step_micro(ens, block, dt, substream(43), LB).velocities
    assert sorted(calls) == [n, 2 * n]
    for r, path in enumerate(paths):
        rows = slice(r * n, (r + 1) * n)
        want = dt * path.value_at(0.5).field.eval_at(pos[rows])
        assert np.array_equal(vel[rows][stay[rows]], want[stay[rows]])


def test_path_block_lookup_follows_every_path(grid, model):
    # paths on different clocks (one shifted by 0.3) with their own jumps:
    # steps that start at every breakpoint of any path, between breakpoints
    # and at the span start, short and long, are cut at every breakpoint
    # inside them, and on each piece each run feels its own path's value
    # (right-continuous)
    paths = [generate_path(model, 3.0, seed=substream(43, r),
                           t_start=0.3 * (r == 2)) for r in range(5)]
    block = PathBlock(paths)
    edges = np.unique(np.concatenate([p.times for p in paths]))
    times = np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])
    n = 20
    pos = substream(44).random((5 * n, 1))
    for t in times[(times >= 0.3) & (times <= 3.0)]:
        for dt in (1e-3, 0.4):
            if t + dt > 3.0:
                continue
            cuts, terms = block.pieces(t, dt)
            inside = edges[(edges > t) & (edges < t + dt)]
            assert cuts[0] == 0.0 and cuts[-1] == dt
            assert np.allclose(cuts[1:-1], inside - t, rtol=0, atol=1e-15)
            for p in range(len(cuts) - 1):
                mid = t + 0.5 * (cuts[p] + cuts[p + 1])
                for r, path in enumerate(paths):
                    rows = slice(r * n, (r + 1) * n)
                    felt = []
                    for f, runs, sg in terms:
                        cols = list(range(5) if runs is None else runs)
                        if r in cols and sg[p, cols.index(r)]:
                            felt.append((f, sg[p, cols.index(r)]))
                    assert len(felt) == 1
                    f, sign = felt[0]
                    assert np.array_equal(
                        sign * f.eval_at(pos[rows]),
                        path.value_at(mid).field.eval_at(pos[rows]))
