"""Correctness checks on a workload's output directory.

Every check compares against a closed form or a property the method must
have, never against a stored copy of an earlier output.  Each returns
(ok, detail); a missing or malformed file makes the check fail.  The
closed forms are for the renewal two-point law +/- a cos(2 pi x) e_0:

    K_00(x)    = 1 + (1 + (b - 1)/2) a^2 cos^2(2 pi x_0)
    Theta_0(x) = -(pi/2) (2b + 1) a^2 sin(4 pi x_0)
    K_ij = delta_ij and Theta_i = 0 otherwise,

with b = 2 for lb and 1 for fp collisions; the covariance operator has
rank one and eigenvalue a^2/2.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import math
import os

import numpy as np

COLLISION_B = {"lb": 2.0, "fp": 1.0}
CSV_TOL = 1e-9     # outputs written with 10 significant digits


def _header_meta(line: str) -> dict:
    return dict(kv.split("=", 1) for kv in line.lstrip("# ").split())


def _read_table(path, skip_comment=False):
    """Header names and float columns of a CSV file."""
    with open(path, newline="") as fh:
        if skip_comment:
            fh.readline()
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path, skip_comment=False):
    header, rows = _read_table(path, skip_comment)
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def coefficients_closed_form(out_dir, collision, amplitude, tol=1e-10):
    """K and Theta in coefficients.csv against the two-point closed forms."""
    path = os.path.join(out_dir, "coefficients.csv")
    with open(path) as fh:
        meta = _header_meta(fh.readline())
    if meta.get("collision") != collision:
        return False, f"labelled collision={meta.get('collision')}, " \
                      f"expected {collision}"
    b = COLLISION_B[collision]
    if float(meta["b"]) != b:
        return False, f"labelled b={meta['b']}, expected {b}"
    dim = int(meta["dim"])
    cols = _columns(path, skip_comment=True)
    x0 = cols["x0"]
    a2 = amplitude**2
    expect = {"K00": 1 + (1 + (b - 1) / 2) * a2 * np.cos(2 * np.pi * x0)**2,
              "Theta0": -(np.pi / 2) * (2 * b + 1) * a2
              * np.sin(4 * np.pi * x0)}
    for i in range(dim):
        for j in range(dim):
            if (i, j) != (0, 0):
                expect[f"K{i}{j}"] = np.full_like(x0, float(i == j))
        if i:
            expect[f"Theta{i}"] = np.zeros_like(x0)
    gap = max(float(np.max(np.abs(cols[k] - v))) for k, v in expect.items())
    return gap <= tol, f"max gap {gap:.3g} over {len(x0)} points (tol {tol})"


def spectrum_rank_one(out_dir, amplitude, tol=1e-10):
    """spectrum.csv keeps one eigenvalue, equal to a^2/2."""
    _, rows = _read_table(os.path.join(out_dir, "spectrum.csv"),
                          skip_comment=True)
    lams = [float(r[1]) for r in rows]
    if len(lams) != 1:
        return False, f"rank {len(lams)}, expected 1"
    gap = abs(lams[0] - amplitude**2 / 2)
    return gap <= tol, f"lambda_1 {lams[0]!r}, gap {gap:.3g}"


def one_mean_gap(out_dir, tol=1e-12):
    """The mass functional's mean gap in converge_table.csv is ~0."""
    header, rows = _read_table(os.path.join(out_dir, "converge_table.csv"))
    gaps = [float(r[header.index("mean_gap")]) for r in rows
            if r[header.index("xi")] == "one"]
    if not gaps:
        return False, "no rows for xi=one"
    worst = max(abs(g) for g in gaps)
    return worst <= tol, f"max |mean gap| {worst:.3g} over {len(gaps)} eps"


def trend_verdict(out_dir):
    """The converge stage's own mean and variance trend verdicts are PASS."""
    with open(os.path.join(out_dir, "report_converge.txt")) as fh:
        lines = [ln.strip() for ln in fh if "trend monotone" in ln]
    ok = len(lines) == 2 and all(ln.endswith(": PASS") for ln in lines)
    return ok, "; ".join(lines) or "no trend lines"


def spde_one_quantiles(out_dir):
    """The `one` functional's SPDE quantiles equal 1 at every checkpoint."""
    cols = _columns(os.path.join(out_dir, "spde_ensemble.csv"))
    q = np.stack([cols[f"one_q{p}"] for p in (10, 50, 90)])
    gap = float(np.max(np.abs(q - 1.0)))
    return gap <= CSV_TOL, f"max |q - 1| {gap:.3g} over {q.shape[1]} times"


def spde_t0_quantiles(out_dir):
    """At t=0 the cos1 and sin1 quantiles equal cos(1)/4 and sin(1)/4."""
    cols = _columns(os.path.join(out_dir, "spde_ensemble.csv"))
    if cols["t"][0] != 0.0:
        return False, "first row is not t=0"
    gap = 0.0
    for name, exact in (("cos1", math.cos(1) / 4), ("sin1", math.sin(1) / 4)):
        for p in (10, 50, 90):
            gap = max(gap, abs(cols[f"{name}_q{p}"][0] - exact))
    return gap <= CSV_TOL, f"max t=0 gap {gap:.3g}"


def checkpoint_mass(out_dir, mass=1.0, tol=1e-8):
    """Every kinetic checkpoint density integrates to the initial mass."""
    paths = sorted(glob.glob(os.path.join(out_dir, "kinetic_eps*_cp*.csv")))
    if not paths:
        return False, "no checkpoint files"
    worst = max(abs(float(np.mean(_columns(p, skip_comment=True)["rho"]))
                    - mass) for p in paths)
    return worst <= tol, f"max mass error {worst:.3g} over {len(paths)} files"


def corrector_falls(out_dir, epsilons):
    """The sup H^-1 norm of the corrector falls as eps falls."""
    sups = [float(np.max(_columns(os.path.join(
        out_dir, f"kinetic_eps{eps}_series.csv"))["corrector_hminus1"]))
        for eps in epsilons]
    ok = len(sups) >= 2 and all(b < a for a, b in zip(sups, sups[1:]))
    return ok, "sup corrector " + ", ".join(
        f"eps={e}: {s:.4g}" for e, s in zip(epsilons, sups))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def manifests_match(out_dir, manifests):
    """Each named manifest's file checksums equal sha256 of the files.

    Returns (ok, detail, checksums), checksums mapping file name to digest.
    """
    checksums, bad = {}, []
    for name in manifests:
        with open(os.path.join(out_dir, name)) as fh:
            entries = dict(ln.strip().split(" = ", 1) for ln in fh
                           if ln.startswith("file."))
        if not entries:
            bad.append(f"{name} lists no files")
        for key, digest in entries.items():
            fname = key[len("file."):]
            actual = sha256_file(os.path.join(out_dir, fname))
            checksums[fname] = actual
            if actual != digest:
                bad.append(fname)
    return not bad, (f"mismatch: {', '.join(bad)}" if bad else
                     f"{len(checksums)} files match"), checksums


def same_checksums(checksums, reference):
    """All rounds of a run (same seed) wrote byte-identical outputs."""
    differ = sorted(k for k in set(checksums) | set(reference)
                    if checksums.get(k) != reference.get(k))
    return not differ, (f"differ: {', '.join(differ)}" if differ else
                        f"{len(checksums)} files identical to round 1")


def lb_jumps_binomial(jumps, expected, variance, n_sigma=4.0):
    """The lb collision count lies within n_sigma of n(1 - e^-dt) summed."""
    if expected <= 0:
        return False, "no lb steps traced"
    z = (jumps - expected) / math.sqrt(variance)
    return abs(z) <= n_sigma, f"{jumps:.0f} jumps, expected {expected:.1f}, " \
                              f"z = {z:+.2f}"


def self_time_within_wall(self_sum, traced_wall):
    """Self times of all spans add up to no more than the traced wall."""
    return self_sum <= traced_wall, \
        f"self sum {self_sum:.4f} s, traced wall {traced_wall:.4f} s"
