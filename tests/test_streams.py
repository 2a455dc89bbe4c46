"""Every random stream comes from the key table in `kinlim.rng`.

Runs every stage and `validate` on a mini config at one seed with
`rng.substream` wrapped, and records each key with the role that drew it.
A role is where the draw starts (the outermost kinlim call below the stage
dispatch) and the line that builds the stream.  The acceptance suite runs
the same checks as `validate`; its source is read to show that it draws
nothing else.
"""

import ast
import collections
import os
import sys
import traceback

import kinlim
from kinlim import rng
from kinlim.cli import main
from kinlim.config import ExperimentConfig

SEED = 5
SRC = os.path.dirname(kinlim.__file__)
TAGS = {v for k, v in vars(rng).items() if k.isupper() and type(v) is int}
# Functions that only dispatch a stage or the checks, whose frames (and
# comprehension frames) are skipped in naming a role.
DISPATCH = {"main", "cmd_coeffs", "cmd_converge", "cmd_validate",
            "coefficients_stage", "validation_suite"}
# Functions that start one role by design, named without a line so that
# each pair is one role: simulate-spde writes the statistics of the SPDE
# ensemble whose final samples converge compares with the kinetic laws.  The
# coefficient and covariance estimators read one `draw_stationary` pass, so
# a redraw inside either of them would show as a second role.
ONE_ROLE = {"cmd_simulate_spde": "convergence_study",
            "convergence_study": "convergence_study"}


def _role():
    frames = [f for f in traceback.extract_stack()
              if f.filename.startswith(SRC) and f.filename != rng.__file__
              and f.name not in DISPATCH and f.name[0] != "<"]
    start, draw = frames[0], frames[-1]
    where = ONE_ROLE.get(start.name, (start.name, start.lineno))
    return where, draw.name, draw.lineno


def _record_keys(monkeypatch, argv_list):
    orig = rng.substream
    keys = collections.defaultdict(set)

    def recording(seed, *tags):
        head = seed if isinstance(seed, tuple) else (seed,)
        keys[tuple(int(k) for k in head + tags)].add(_role())
        return orig(seed, *tags)

    for name, mod in list(sys.modules.items()):
        if name.startswith("kinlim."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, recording)
    codes = [main(argv) for argv in argv_list]
    return keys, codes


def _mini_config(tmp_path):
    cfg = ExperimentConfig(
        grid_m=16, epsilons=(0.6, 0.5, 0.4), horizon=0.002,
        n_particles=100, n_realizations=64, n_spde_realizations=64,
        n_mc=100, n_paths=100, n_checkpoints=2, dt_spde=5e-5,
        out_dir=str(tmp_path / "out"), seed=SEED)
    config = tmp_path / "mini.cfg"
    cfg.save(config)
    return cfg, config


def test_every_key_comes_from_the_table_and_serves_one_role(tmp_path,
                                                            monkeypatch):
    cfg, config = _mini_config(tmp_path)
    stages = ("coeffs", "simulate-kinetic", "simulate-spde", "converge",
              "validate")
    keys, codes = _record_keys(
        monkeypatch, [[s, "--config", str(config)] for s in stages])
    assert codes[:3] == [0, 0, 0] and set(codes[3:]) <= {0, 1}
    assert {k[0] for k in keys} == {SEED}
    assert {k[1] for k in keys} <= TAGS
    shared = {k: roles for k, roles in keys.items() if len(roles) > 1}
    assert not shared, f"keys drawn by two roles: {shared}"
    # every stage and check drew: the table's role tags all appear
    assert {k[1] for k in keys} == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14,
                                    20, 41, 201, 202}


def test_stationary_pass_draws_one_stream_per_draw(tmp_path, monkeypatch):
    # draw i takes only its sample's stream: R_0 and R_1 are closed forms,
    # and R_1 R_0 = R_0 - R_1
    cfg, config = _mini_config(tmp_path)
    keys, codes = _record_keys(monkeypatch,
                               [["coeffs", "--config", str(config)]])
    assert codes == [0]
    assert set(keys) == {(SEED, rng.STATIONARY, rng.SAMPLE, i)
                         for i in range(cfg.n_mc)}


def test_acceptance_suite_draws_only_the_stationary_pass():
    # every other draw of the acceptance suite happens inside a check of
    # `kinlim.experiment`, keyed by the table; no seed arithmetic
    path = os.path.join(os.path.dirname(__file__), "test_acceptance.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    calls = [node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None)
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    sampling = {"substream", "run_ensemble", "run_rescaled", "generate_path",
                "draw_stationary", "functional_samples", "as_generator"}
    assert [c for c in calls if c in sampling] == ["draw_stationary"]
    [draw] = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "draw_stationary"]
    assert [(k.arg, getattr(k.value, "id", None)) for k in draw.keywords] \
        == [("seed", "SEED")]
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                   and "SEED" in {getattr(node.left, "id", None),
                                  getattr(node.right, "id", None)}
                   for node in ast.walk(tree))
