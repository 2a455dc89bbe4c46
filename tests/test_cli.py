import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlim.cli import main
from kinlim.coefficients import spectrum_from_csv
from kinlim.config import ExperimentConfig, RunManifest, file_checksum
from kinlim.forcing import two_point_renewal
from kinlim.torus import TorusGrid

ROOT = Path(__file__).resolve().parents[1]


def mini_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        grid_m=32,
        epsilons=(0.6, 0.5, 0.4),
        horizon=0.01,
        n_particles=500,
        n_realizations=64,
        n_spde_realizations=64,
        n_mc=100,
        n_paths=1000,
        n_checkpoints=3,
        dt_spde=5e-5,
        out_dir=str(tmp_path / "out"),
        seed=3,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    path = tmp_path / "config.txt"
    cfg.save(path)
    return cfg, str(path)


def test_config_round_trip(tmp_path):
    cfg, path = mini_config(tmp_path)
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg
    assert loaded.content_hash() == cfg.content_hash()


def test_config_validation_errors():
    for bad in [
            dict(collision="bogus"), dict(grid_m=48),
            dict(epsilons=(0.25, 0.5)), dict(epsilons=(0.5, 0.5, 0.25)),
            dict(dt_micro_factor=0.5), dict(n_checkpoints=0), dict(threads=0),
            dict(n_spde_realizations=1), dict(horizon=float("nan")),
            dict(amplitude=float("inf")), dict(out_dir="runs/#1"),
            dict(out_dir=" out"), dict(out_dir="out\t"),
            dict(scenario="desk\nseed = 3"), dict(scenario="a\u2028b")]:
        with pytest.raises(ValueError):
            ExperimentConfig(**bad).validate()
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("unknown_key = 3\n")


def test_config_refuses_a_mode_the_grid_aliases():
    # at grid_m = 64, mode 40 builds the mode-24 atom: a cos(2 pi 40 x) is
    # -0.496 at x = 0.013, the atom gives a cos(2 pi 24 x) = -0.190
    x, a = 0.013, 0.5
    atom = two_point_renewal(TorusGrid(1, 64), a, mode=40).atoms[0]
    assert atom.eval_at([[x]])[0, 0] == pytest.approx(-0.190, abs=5e-4)
    assert atom.eval_at([[x]])[0, 0] == pytest.approx(
        a * np.cos(2 * np.pi * 24 * x), abs=1e-12)
    assert a * np.cos(2 * np.pi * 40 * x) == pytest.approx(-0.496, abs=5e-4)
    for mode in (40, 32, 0, -1):
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig(grid_m=64, mode=mode).validate()
    ExperimentConfig(grid_m=64, mode=31).validate()
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(grid_m=4, mode=2).validate()


def test_shipped_configs_validate():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for wl in WORKLOADS.values():
        ExperimentConfig.from_text(wl.config_text(1, "out")).validate()
    ExperimentConfig.load(ROOT / "demos" / "desk.cfg").validate()


# Config values a user can write: free text without '#', line breaks or
# surrounding whitespace, finite numbers within the checked ranges.
TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                             exclude_characters="#"), max_size=12
               ).map(str.strip)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
CONFIGS = st.builds(
    ExperimentConfig, scenario=TEXT, model_kind=st.sampled_from(
        ["renewal", "ou"]), amplitude=FINITE,
    sobolev_index=FINITE, collision=st.sampled_from(["lb", "fp"]),
    dim=st.sampled_from([1, 2]), grid_m=st.sampled_from([4, 8, 64, 1024]),
    epsilons=st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1,
                      max_size=4, unique=True).map(
                          lambda e: tuple(sorted(e, reverse=True))),
    horizon=POSITIVE, dt_micro_factor=st.floats(min_value=1e-300,
                                                max_value=0.1),
    dt_spde=POSITIVE, n_particles=st.integers(min_value=100),
    n_realizations=st.integers(min_value=2),
    n_spde_realizations=st.integers(min_value=2),
    n_mc=st.integers(min_value=100), n_paths=st.integers(),
    n_checkpoints=st.integers(min_value=1), seed=st.integers(0, 2**64 - 1),
    out_dir=TEXT, threads=st.integers(min_value=1)).flatmap(
        lambda cfg: st.integers(1, cfg.grid_m // 2 - 1).map(
            lambda mode: replace(cfg, mode=mode)))


@given(CONFIGS)
@settings(max_examples=200, deadline=None)
def test_config_text_round_trip(cfg):
    cfg.validate()
    text = cfg.to_text()
    back = ExperimentConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text


def test_coeffs_stage_and_determinism(tmp_path):
    cfg, path = mini_config(tmp_path)
    assert main(["coeffs", "--config", path]) == 0
    out = tmp_path / "out"
    assert (out / "coefficients.csv").exists()
    assert (out / "spectrum.csv").exists()
    first = {name: file_checksum(out / name)
             for name in ("coefficients.csv", "spectrum.csv")}
    manifest = RunManifest.load(out / "manifest_coeffs.txt")
    assert manifest.files == first
    assert main(["coeffs", "--config", path]) == 0
    second = {name: file_checksum(out / name)
              for name in ("coefficients.csv", "spectrum.csv")}
    assert first == second


def test_converge_requires_coefficient_files(tmp_path):
    cfg, path = mini_config(tmp_path)
    with pytest.raises(FileNotFoundError):
        main(["converge", "--config", path])


def test_simulate_kinetic_writes_series(tmp_path):
    cfg, path = mini_config(tmp_path, epsilons=(0.5,), n_particles=400)
    assert main(["simulate-kinetic", "--config", path]) == 0
    out = tmp_path / "out"
    series = out / "kinetic_eps0.5_series.csv"
    assert series.exists()
    rows = series.read_text().strip().splitlines()
    assert rows[0].startswith("t,J0,J1,J2,J3")
    assert len(rows) >= 4
    assert (out / "kinetic_eps0.5_cp00.csv").exists()
    assert_step_lines(out / "report_kinetic.txt", cfg, 1)


STEP_LINE = re.compile(
    r"eps=(\S+): micro dt (\S+), (\d+) steps, (\S+) per step at unit "
    r"speed, (\d+) particle-steps in (\S+) s \((\S+) particle-steps/s\)")


def assert_step_lines(report, cfg, realizations):
    """The report states each eps's micro step (the config's rule, the
    horizon split evenly), its step count, the displacement per step at
    unit speed, the particle-steps and their rate; no manifest checksums
    the report."""
    manifests = "".join(p.read_text()
                        for p in report.parent.glob("manifest_*.txt"))
    assert manifests and report.name not in manifests
    found = [STEP_LINE.fullmatch(line)
             for line in report.read_text().splitlines()]
    found = [m for m in found if m]
    assert [float(m[1]) for m in found] == list(cfg.epsilons)
    for m in found:
        eps, dt, steps = float(m[1]), float(m[2]), int(m[3])
        micro_t = cfg.horizon / eps**2
        assert steps == math.ceil(micro_t / cfg.micro_dt(eps) - 1e-9)
        assert dt == pytest.approx(micro_t / steps, rel=1e-5)
        assert dt <= cfg.micro_dt(eps) * (1 + 1e-9)
        assert float(m[4]) == pytest.approx(eps * dt, rel=1e-3)
        assert int(m[5]) == realizations * cfg.n_particles * steps
        assert float(m[7]) == pytest.approx(int(m[5]) / float(m[6]),
                                            rel=0.1)


def test_simulate_kinetic_ou_report_states_corrector_closed_form(tmp_path):
    # the corrector column takes the exact R0 of either law, so neither
    # report carries the note that OU once needed (R0(e) = e holds for the
    # OU law only while its clip is inactive)
    for kind in ("renewal", "ou"):
        cfg, path = mini_config(tmp_path, epsilons=(0.5,), n_particles=400,
                                model_kind=kind)
        assert main(["simulate-kinetic", "--config", path]) == 0
        report = (tmp_path / "out" / "report_kinetic.txt").read_text()
        assert "corrector_hminus1" not in report and "R0" not in report


def test_simulate_spde_and_converge_pipeline(tmp_path):
    cfg, path = mini_config(tmp_path)
    assert main(["coeffs", "--config", path]) == 0
    assert main(["simulate-spde", "--config", path]) == 0
    out = tmp_path / "out"
    assert (out / "spde_ensemble.csv").exists()
    code = main(["converge", "--config", path])
    assert code in (0, 1)  # smoke: the tiny study may not show the trend
    assert (out / "converge_table.csv").exists()
    assert (out / "report_converge.txt").exists()
    table = (out / "converge_table.csv").read_text().splitlines()
    assert table[0].startswith("epsilon,xi,")
    # 3 epsilons x 4 test functions
    assert len(table) == 1 + 12
    assert_step_lines(out / "report_converge.txt", cfg, cfg.n_realizations)
    # the SPDE side: 64 realizations x (0.01 / 5e-5) steps and their rate
    spde_line = [re.fullmatch(
        r"spde: (\d+) realizations x (\d+) steps in (\S+) s "
        r"\((\S+) realization-steps/s\)", line)
        for line in (out / "report_converge.txt").read_text().splitlines()]
    (m,) = [m for m in spde_line if m]
    assert (int(m[1]), int(m[2])) == (64, 200)
    assert float(m[4]) == pytest.approx(64 * 200 / float(m[3]), rel=0.1)
    # 1-D: nothing is cut, every mode 0 .. m/2 of the half spectrum steps
    line = "modes stepped per realization: 17 of 17, the rest exactly zero"
    for name in ("report_spde.txt", "report_converge.txt"):
        assert line in (out / name).read_text()


def test_simulate_spde_2d_columns_follow_forced_axis(tmp_path):
    cfg, path = mini_config(tmp_path, dim=2, grid_m=16)
    assert main(["coeffs", "--config", path]) == 0
    assert main(["simulate-spde", "--config", path]) == 0
    rows = (tmp_path / "out" / "spde_ensemble.csv").read_text().splitlines()
    last = dict(zip(rows[0].split(","), rows[-1].split(",")))
    # the noise acts along x_0, so mode (1, 0) fluctuates
    assert float(last["var_k1"]) > 0
    # the reports name the stationary nodes (the two atoms), the
    # covariance's QR width (kernel side 512, 2 x 2 nodes), the stepping
    # blocks (2^14 // 256 = 64 realizations) and the step's products: one
    # for Theta and Kvar at each of +/- 2 e_0, one for phi at each of
    # +/- e_0
    out = tmp_path / "out"
    coeffs_report = (out / "report_coeffs.txt").read_text()
    assert "stationary nodes 2 (the law's atoms, exact)" in coeffs_report
    assert "covariance QR width 4 (kernel side 512, 2 x 2 nodes)" in \
        coeffs_report
    report = (out / "report_spde.txt").read_text()
    assert "64 realizations per block, 1 blocks per step" in report
    assert "4 shifted products per step" in report
    assert "coefficient modes kept 6, largest dropped |c|/max|c|" in report
    # the x_0-only law and start leave every mode k_1 != 0 exactly zero:
    # 16 of the 16 x 9 half-spectrum modes step
    assert ("modes stepped per realization: 16 of 144, the rest exactly "
            "zero") in report


def test_seed_override_changes_hash_not_manifest_match(tmp_path):
    cfg, path = mini_config(tmp_path)
    assert main(["coeffs", "--config", path, "--seed", "11"]) == 0
    out = tmp_path / "out"
    manifest = RunManifest.load(out / "manifest_coeffs.txt")
    assert manifest.stage_seeds["coeffs"] == 11


def test_coeffs_2d_past_m16(tmp_path):
    # 2-D m=32: a 2048-wide kernel, which the coeffs stage never forms; the
    # two-point law gives one eigenvalue, a^2/2
    cfg, path = mini_config(tmp_path, dim=2, grid_m=32)
    assert main(["coeffs", "--config", path]) == 0
    spectrum = spectrum_from_csv(tmp_path / "out" / "spectrum.csv")
    assert spectrum.rank == 1
    assert spectrum.eigenvalues[0] == pytest.approx(cfg.amplitude**2 / 2,
                                                    abs=1e-12)
