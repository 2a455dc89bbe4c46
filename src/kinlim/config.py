"""Experiment configuration and run manifests.

Configs are flat `key = value` text files (comments with '#'); values are
typed from the dataclass defaults and round-trip losslessly.  A manifest
records the config hash, code version, stage seeds, and a checksum per
output file, so reruns can be verified byte for byte.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from itertools import pairwise

from .equilibrium import FP, LB


@dataclass
class ExperimentConfig:
    scenario: str = "desk"
    model_kind: str = "renewal"      # renewal | ou
    amplitude: float = 0.5
    mode: int = 1
    sobolev_index: float = 6.0
    collision: str = LB              # lb | fp
    dim: int = 1
    grid_m: int = 64
    epsilons: tuple = (0.5, 0.25, 0.125)
    horizon: float = 0.05
    # micro step = factor / (grid_m * eps): a unit-speed particle crosses
    # at most `factor` grid cells per step
    dt_micro_factor: float = 0.1
    dt_spde: float = 1e-5
    n_particles: int = 20_000
    n_realizations: int = 256
    n_spde_realizations: int = 256
    # no stage reads n_mc (every stationary pass takes exact nodes); the key
    # stays because config files set it, bench/workloads.py among them, and
    # `from_text` refuses unknown keys
    n_mc: int = 200
    n_paths: int = 10_000
    n_checkpoints: int = 10
    seed: int = 7
    out_dir: str = "out"
    threads: int = 1

    def validate(self):
        if self.model_kind not in ("renewal", "ou"):
            raise ValueError(f"model_kind {self.model_kind!r}")
        if self.collision not in (LB, FP):
            raise ValueError(f"collision {self.collision!r}")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2 at desk scale")
        if self.grid_m < 4 or self.grid_m & (self.grid_m - 1):
            raise ValueError("grid_m must be a power of two >= 4")
        if not 1 <= self.mode < self.grid_m // 2:
            # a higher mode aliases on the grid: at grid_m = 64, mode 40
            # samples as mode 24
            raise ValueError(f"mode must lie in [1, grid_m / 2) = "
                             f"[1, {self.grid_m // 2}), got {self.mode}")
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, str) and ("#" in v or v != v.strip()
                                       or len(v.splitlines()) > 1):
                raise ValueError(f"{f.name} {v!r}: no '#', line break or "
                                 "surrounding whitespace in a config value")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite")
        if len(self.epsilons) < 1 or any(not 0 < e <= 1 for e in self.epsilons):
            raise ValueError("epsilons must lie in (0, 1]")
        if any(a <= b for a, b in pairwise(self.epsilons)):
            raise ValueError("epsilons must be strictly decreasing")
        if self.horizon <= 0 or self.dt_spde <= 0:
            raise ValueError("horizon and dt_spde must be positive")
        if not 0 < self.dt_micro_factor <= 0.1:
            raise ValueError("dt_micro_factor must be in (0, 0.1]")
        if self.n_particles < 100 or self.n_realizations < 2 or \
                self.n_spde_realizations < 2:
            raise ValueError("particle or realization count too small")
        if self.n_checkpoints < 1 or self.threads < 1:
            raise ValueError("n_checkpoints and threads must be >= 1")
        if self.n_mc < 100:
            raise ValueError("n_mc must be >= 100")
        return self

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ", ".join(repr(x) for x in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        raw = _key_values(text)
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            val = raw.pop(f.name)
            default = getattr(cls, f.name)
            if isinstance(default, tuple):
                kwargs[f.name] = tuple(float(x) for x in val.split(","))
            elif isinstance(default, int):
                kwargs[f.name] = int(val)
            elif isinstance(default, float):
                kwargs[f.name] = float(val)
            else:
                kwargs[f.name] = val
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)}")
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def micro_dt(self, epsilon: float) -> float:
        """The micro step at epsilon, sized by the distance eps |v| dt a
        particle moves (the step is exact in time): 1/m bounds the shortest
        length scale of every field on the grid."""
        return self.dt_micro_factor / (self.grid_m * epsilon)


def _key_values(text: str) -> dict:
    """`key = value` lines of a config or manifest; '#' starts a comment."""
    raw = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        raw[key] = val
    return raw


def file_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    stage: str
    stage_seeds: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)

    def add_file(self, path):
        import os
        self.files[os.path.basename(str(path))] = file_checksum(path)

    def to_text(self) -> str:
        lines = [f"config_hash = {self.config_hash}",
                 f"code_version = {self.code_version}",
                 f"stage = {self.stage}"]
        for k in sorted(self.stage_seeds):
            lines.append(f"seed.{k} = {self.stage_seeds[k]}")
        for name in sorted(self.files):
            lines.append(f"file.{name} = {self.files[name]}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path) as fh:
            raw = _key_values(fh.read())
        return cls(raw.get("config_hash", ""), raw.get("code_version", ""),
                   raw.get("stage", ""),
                   {k[5:]: int(v) for k, v in raw.items() if k[:5] == "seed."},
                   {k[5:]: v for k, v in raw.items() if k[:5] == "file."})
