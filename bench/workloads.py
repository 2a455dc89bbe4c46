"""Workload definitions: the config each workload runs and its stage order.

A workload is a kinlim config plus the list of `kinlim` subcommands a user
would run on it, in order.  Only `seed` depends on the benchmark's --seed;
every size is fixed here so that two runs with different seeds do the same
amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

# Fields shared by every workload.  The renewal two-point law
# +/- a cos(2 pi x) e_0 is the only force law with closed-form coefficients,
# which the correctness checks need.
BASE = {
    "scenario": "bench",
    "model_kind": "renewal",
    "amplitude": 0.5,
    "mode": 1,
    "sobolev_index": 6.0,
    "dt_micro_factor": 0.1,
    "n_mc": 100,
    "threads": 1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple          # kinlim subcommands, run in this order
    config: dict           # fields the stages read, on top of BASE;
                           # the rest keep ExperimentConfig's defaults

    def config_text(self, seed: int, out_dir: str) -> str:
        """The `key = value` config file a user would write for this run."""
        fields = dict(BASE, **self.config, seed=int(seed), out_dir=out_dir)
        lines = []
        for key, val in fields.items():
            if isinstance(val, tuple):
                val = ", ".join(repr(v) for v in val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def value(self, key):
        return self.config.get(key, BASE.get(key))


WORKLOADS = {w.name: w for w in [
    # The paper's headline experiment: kinetic laws at three epsilons
    # against the SPDE law.  Particle stepping is ~87 % of the converge
    # stage, so the kinetic engine (eval_at, step_micro, lb jumps) dominates.
    Workload(
        name="converge-1d-lb",
        why="coeffs then converge in 1-D, lb collisions, eps 1/2 1/4 1/8: "
            "the headline experiment, dominated by particle stepping",
        stages=("coeffs", "converge"),
        config={
            "collision": "lb", "dim": 1, "grid_m": 64,
            "epsilons": (0.5, 0.25, 0.125), "horizon": 0.025,
            "dt_spde": 1e-05, "n_particles": 250, "n_realizations": 64,
            "n_spde_realizations": 64,
        },
    ),
    # Few steps but many particles per moment call: the exact Fourier
    # estimator (_empirical_modes) and its particles x modes phase matrix
    # dominate time and peak memory; fp takes the Gaussian branch of
    # step_micro instead of lb jumps.
    Workload(
        name="kinetic-2d-fp",
        why="simulate-kinetic in 2-D, fp collisions, Fourier moments and "
            "corrector at checkpoints: dominated by moment estimation",
        stages=("simulate-kinetic",),
        config={
            "collision": "fp", "dim": 2, "grid_m": 32,
            "epsilons": (0.5, 0.25), "horizon": 0.05,
            "n_particles": 10000, "n_checkpoints": 3,
        },
    ),
    # No particles at all: the dense covariance kernel (512 x 512 at
    # m=16, the largest 2-D grid coeffs accepts) and the batched SPDE step.
    Workload(
        name="spde-2d-lb",
        why="coeffs then simulate-spde in 2-D at m=16, 1000 realizations: "
            "covariance kernel and SPDE stepping, no particles",
        stages=("coeffs", "simulate-spde"),
        config={
            "collision": "lb", "dim": 2, "grid_m": 16, "horizon": 0.01,
            "dt_spde": 0.00025, "n_spde_realizations": 1000,
            "n_checkpoints": 4,
        },
    ),
]}
