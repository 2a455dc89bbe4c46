import numpy as np
import pytest

from kinlim.cli import main
from kinlim.coefficients import spectrum_from_csv
from kinlim.config import ExperimentConfig, RunManifest, file_checksum


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
    with pytest.raises(ValueError):
        ExperimentConfig(collision="bogus").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(grid_m=48).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(epsilons=(0.25, 0.5)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(dt_micro_factor=0.5).validate()
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("unknown_key = 3\n")


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


def test_simulate_kinetic_ou_report_states_corrector_closed_form(tmp_path):
    # the corrector column takes the renewal R0(e) = e, which the OU law
    # meets only while its clip is inactive; the report says so
    reports = []
    for kind in ("renewal", "ou"):
        cfg, path = mini_config(tmp_path, epsilons=(0.5,), n_particles=400,
                                model_kind=kind)
        assert main(["simulate-kinetic", "--config", path]) == 0
        reports.append((tmp_path / "out" / "report_kinetic.txt").read_text())
    renewal, ou = reports
    assert "R0(e) = e" not in renewal
    assert "corrector_hminus1 takes R0(e) = e" in ou and "OU" in ou


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


def test_simulate_spde_2d_columns_follow_forced_axis(tmp_path):
    cfg, path = mini_config(tmp_path, dim=2, grid_m=16)
    assert main(["coeffs", "--config", path]) == 0
    assert main(["simulate-spde", "--config", path]) == 0
    rows = (tmp_path / "out" / "spde_ensemble.csv").read_text().splitlines()
    last = dict(zip(rows[0].split(","), rows[-1].split(",")))
    # the noise acts along x_0, so mode (1, 0) fluctuates
    assert float(last["var_k1"]) > 0
    # the reports name the covariance's QR width (kernel side 512,
    # 2 n_mc = 200) and the stepping blocks (2^14 // 256 = 64 realizations)
    out = tmp_path / "out"
    assert "covariance QR width 200" in (out / "report_coeffs.txt").read_text()
    assert "64 realizations per block, 1 blocks per step" in \
        (out / "report_spde.txt").read_text()


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
