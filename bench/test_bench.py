"""Tests of the benchmark itself: span arithmetic and the output checks.

Run with `python3 -m pytest bench`.  They need numpy only, not kinlim: every
check is fed a small hand-made output directory, once right and once wrong.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

import checks
import spans
from run import END_TO_END
from workloads import WORKLOADS

A = 0.5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- span recorder ----------------------------------------------------------


def test_self_time_nested_and_siblings():
    #  0 [0, 100)  has children 1 [10, 30) and 2 [40, 90)
    #  2 has child 3 [50, 60)
    start, end, parent = [0, 10, 40, 50], [100, 30, 90, 60], [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent).tolist() == [30, 20, 40, 10]


def test_self_time_counts_overlapping_children_once():
    start, end, parent = [0, 10, 20], [100, 50, 60], [-1, 0, 0]
    assert spans.self_times(start, end, parent).tolist() == [50, 40, 40]


def test_self_time_clips_child_to_parent():
    start, end, parent = [10, 0, 30], [40, 20, 80], [-1, 0, 0]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [10, 20, 50]
    assert own.min() >= 0


def test_recorder_with_fake_clock(tmp_path):
    ticks = iter(range(0, 1000, 10))
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    outer = rec.begin("cli.coeffs")            # t = 0
    inner = rec.begin("rng.substream")         # t = 10
    assert rec.current() == "rng.substream"
    rec.finish(inner)                          # t = 20
    inner = rec.begin("rng.substream")         # t = 30
    rec.finish(inner)                          # t = 40
    rec.count("kinetic.particle_steps", 250)
    rec.finish(outer)                          # t = 50
    path = tmp_path / "spans.npz"
    rec.save(path)
    totals, counters, n = spans.load_spans(path)
    assert n == 3
    assert totals["cli.coeffs"] == {"calls": 1, "s": pytest.approx(50e-9),
                                    "self_s": pytest.approx(30e-9)}
    assert totals["rng.substream"]["calls"] == 2
    assert totals["rng.substream"]["self_s"] == pytest.approx(20e-9)
    assert counters["kinetic.particle_steps"] == 250
    assert counters["self_s_sum"] == pytest.approx(50e-9)


def test_recorder_rejects_out_of_order_finish():
    rec = spans.SpanRecorder()
    a = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.finish(a)


def test_per_layer_metrics_cover_the_list_and_zero_unused_layers():
    totals = {"kinetic.step_micro": {"calls": 4, "s": 2e-3, "self_s": 1e-3}}
    counters = {"kinetic.particle_steps": 1000, "self_s_sum": 2e-3}
    m = spans.per_layer_metrics(totals, counters, 4, 123, 1.5, 1.0)
    assert list(m) == list(spans.PER_LAYER)
    assert m["kinetic.ns_per_particle_step"] == pytest.approx(2000.0)
    assert m["spde.us_per_realization_step"] == 0.0
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        spans.PER_LAYER


# -- output checks ----------------------------------------------------------


def write_coefficients(out, collision, b, dim=1, m=16, perturb=0.0):
    xs = np.arange(m) / m
    x0, x1 = (np.meshgrid(xs, xs, indexing="ij") if dim == 2
              else (xs, None))
    x0 = x0.ravel()
    k00 = 1 + (1 + (b - 1) / 2) * A**2 * np.cos(2 * np.pi * x0)**2 + perturb
    th0 = -(np.pi / 2) * (2 * b + 1) * A**2 * np.sin(4 * np.pi * x0)
    cols = [x0] + ([x1.ravel()] if dim == 2 else [])
    names = [f"x{i}" for i in range(dim)]
    zero, one = np.zeros_like(x0), np.ones_like(x0)
    for i in range(dim):
        for j in range(dim):
            names.append(f"K{i}{j}")
            cols.append(k00 if (i, j) == (0, 0) else one if i == j else zero)
    for i in range(dim):
        names.append(f"Theta{i}")
        cols.append(th0 if i == 0 else zero)
    with open(out / "coefficients.csv", "w") as fh:
        fh.write(f"# collision={collision} b={b} dim={dim} m={m} n_mc=100\n")
        fh.write(",".join(names) + "\n")
        for row in np.stack(cols, axis=1):
            fh.write(",".join(f"{v:.16g}" for v in row) + "\n")


@pytest.mark.parametrize("dim", [1, 2])
def test_coefficients_closed_form(tmp_path, dim):
    write_coefficients(tmp_path, "lb", 2.0, dim=dim)
    assert checks.coefficients_closed_form(tmp_path, "lb", A)[0]


def test_coefficients_labelled_with_other_collision_fail(tmp_path):
    write_coefficients(tmp_path, "fp", 1.0)
    assert not checks.coefficients_closed_form(tmp_path, "lb", A)[0]


def test_coefficients_of_other_collision_under_right_label_fail(tmp_path):
    write_coefficients(tmp_path, "fp", 1.0)
    text = (tmp_path / "coefficients.csv").read_text()
    (tmp_path / "coefficients.csv").write_text(
        text.replace("collision=fp b=1.0", "collision=lb b=2.0", 1))
    assert not checks.coefficients_closed_form(tmp_path, "lb", A)[0]


def test_coefficients_off_by_tolerance_fail(tmp_path):
    write_coefficients(tmp_path, "lb", 2.0, perturb=1e-9)
    assert not checks.coefficients_closed_form(tmp_path, "lb", A)[0]


def write_spectrum(out, eigenvalues):
    with open(out / "spectrum.csv", "w") as fh:
        fh.write("# dim=1 m=4 trace=0.125 dropped=0 tol=1e-10 kse=0\n")
        fh.write("k,eigenvalue,z0_0,z0_1,z0_2,z0_3\n")
        for k, lam in enumerate(eigenvalues):
            fh.write(f"{k},{lam!r},1,0,-1,0\n")


def test_spectrum_rank_one(tmp_path):
    write_spectrum(tmp_path, [A**2 / 2])
    assert checks.spectrum_rank_one(tmp_path, A)[0]
    write_spectrum(tmp_path, [A**2 / 2 * (1 + 1e-8)])
    assert not checks.spectrum_rank_one(tmp_path, A)[0]
    write_spectrum(tmp_path, [A**2 / 2, 1e-3])
    assert not checks.spectrum_rank_one(tmp_path, A)[0]


def write_table(out, one_gap):
    rows = ["epsilon,xi,mean_gap,mean_gap_se,var_gap,var_gap_se,ks_stat"]
    for eps in (0.5, 0.25):
        rows.append(f"{eps},one,{one_gap},0,0,0,1")
        rows.append(f"{eps},cos1,0.01,0.002,0.001,0.0002,0.3")
    (out / "converge_table.csv").write_text("\n".join(rows) + "\n")


def test_one_mean_gap(tmp_path):
    write_table(tmp_path, 2.2204460e-16)
    assert checks.one_mean_gap(tmp_path)[0]
    write_table(tmp_path, 1e-9)
    assert not checks.one_mean_gap(tmp_path)[0]


@pytest.mark.parametrize("mean, var, ok", [("PASS", "PASS", True),
                                           ("PASS", "FAIL", False),
                                           ("FAIL", "PASS", False)])
def test_trend_verdict(tmp_path, mean, var, ok):
    (tmp_path / "report_converge.txt").write_text(
        "stage converge\n"
        f"mean-gap trend monotone (1 se slack): {mean}\n"
        f"variance-gap trend monotone (1 se slack): {var}\n")
    assert checks.trend_verdict(tmp_path)[0] == ok


def write_ensemble(out, one=1.0, t0_cos=math.cos(1) / 4):
    names = ["t"] + [f"{xi}_q{p}" for xi in ("one", "cos1", "sin1")
                     for p in (10, 50, 90)]
    rows = [[0.0] + [one] * 3 + [t0_cos] * 3 + [math.sin(1) / 4] * 3,
            [0.01] + [1.0] * 3 + [0.1, 0.12, 0.14] + [0.2, 0.21, 0.22]]
    (out / "spde_ensemble.csv").write_text(
        ",".join(names) + "\n"
        + "\n".join(",".join(f"{v:.10g}" for v in r) for r in rows) + "\n")


def test_spde_quantile_checks(tmp_path):
    write_ensemble(tmp_path)
    assert checks.spde_one_quantiles(tmp_path)[0]
    assert checks.spde_t0_quantiles(tmp_path)[0]
    write_ensemble(tmp_path, one=1.0 + 1e-6)
    assert not checks.spde_one_quantiles(tmp_path)[0]
    write_ensemble(tmp_path, t0_cos=math.cos(1) / 2)
    assert not checks.spde_t0_quantiles(tmp_path)[0]


def write_checkpoint(out, eps, j, mass):
    rho = mass * (1 + 0.5 * np.cos(2 * np.pi * np.arange(8) / 8))
    lines = [f"# t=0 dim=1 m=8", "x0,rho,J0"]
    lines += [f"{i / 8},{r:.10g},0" for i, r in enumerate(rho)]
    (out / f"kinetic_eps{eps}_cp{j:02d}.csv").write_text("\n".join(lines))


def test_checkpoint_mass(tmp_path):
    write_checkpoint(tmp_path, 0.5, 0, 1.0)
    assert checks.checkpoint_mass(tmp_path)[0]
    write_checkpoint(tmp_path, 0.5, 1, 1.001)
    assert not checks.checkpoint_mass(tmp_path)[0]
    assert not checks.checkpoint_mass(tmp_path / "missing")[0]


def write_series(out, eps, norms):
    lines = ["t,J0,J1,J2,J3,rho_hminus1,corrector_hminus1"]
    lines += [f"{i},1,0,1,0,0.1,{v}" for i, v in enumerate(norms)]
    (out / f"kinetic_eps{eps}_series.csv").write_text("\n".join(lines))


def test_corrector_falls(tmp_path):
    write_series(tmp_path, 0.5, [0.01, 0.04, 0.03])
    write_series(tmp_path, 0.25, [0.005, 0.02, 0.01])
    assert checks.corrector_falls(tmp_path, (0.5, 0.25))[0]
    write_series(tmp_path, 0.25, [0.005, 0.05, 0.01])
    assert not checks.corrector_falls(tmp_path, (0.5, 0.25))[0]


def test_manifests_match_and_detect_a_changed_file(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n")
    digest = hashlib.sha256(b"1,2\n").hexdigest()
    (tmp_path / "manifest_x.txt").write_text(
        f"config_hash = 0\nstage = x\nfile.a.csv = {digest}\n")
    ok, _, sums = checks.manifests_match(tmp_path, ["manifest_x.txt"])
    assert ok and sums == {"a.csv": digest}
    (tmp_path / "a.csv").write_text("1,3\n")
    ok, _, sums = checks.manifests_match(tmp_path, ["manifest_x.txt"])
    assert not ok
    assert not checks.same_checksums(sums, {"a.csv": digest})[0]
    assert checks.same_checksums(sums, dict(sums))[0]


def test_lb_jumps_binomial():
    n, p = 10_000, 0.01
    mean, var = n * p, n * p * (1 - p)
    assert checks.lb_jumps_binomial(mean + 3 * math.sqrt(var), mean, var)[0]
    assert not checks.lb_jumps_binomial(mean - 5 * math.sqrt(var), mean,
                                        var)[0]
    assert not checks.lb_jumps_binomial(0, 0, 0)[0]


def test_self_time_within_wall():
    assert checks.self_time_within_wall(4.0, 5.0)[0]
    assert not checks.self_time_within_wall(5.5, 5.0)[0]
