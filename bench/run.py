"""Pipeline benchmark: run a kinlim workload as a user would, check, time.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a kinlim checkout (the directory holding `src/`).
Each round starts one fresh Python process (bench/worker.py) that imports
kinlim from `src/`, loads and validates the workload's config and runs its
stages through `kinlim.cli.main`.  Rounds repeat, on the same inputs, until
--seconds have passed; every round's outputs are checked.  The last line
printed is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics (medians over rounds): wall_s,
setup_s, peak_rss_mb.  --trace 1 alternates an untraced and a traced round
and reports the per-layer metrics of spans.PER_LAYER (medians over traced
rounds), including the tracing overhead.  --workload all runs every
workload both ways and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = ".bench_runs"
RUN_LIMIT_S = 170.0       # the whole run, set-up and checks included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# converge exits 1 when its gap-trend verdict is FAIL.  That verdict is a
# statistical test which, at these sizes, fails on roughly one seed in five
# (see README), so it cannot count as a failed operation; the benchmark
# prints it instead.  Every other stage must exit 0.
STAGE_RC_OK = {"converge": (0, 1)}

MANIFEST = {"coeffs": "manifest_coeffs.txt",
            "converge": "manifest_converge.txt",
            "simulate-kinetic": "manifest_kinetic.txt",
            "simulate-spde": "manifest_spde.txt"}

# One BLAS thread, like threads = 1 in the config: the machine has two cores
# and a second BLAS thread would only add run-to-run noise.
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


def output_checks(wl, out_dir):
    """name -> check of this workload's outputs; the set is fixed per
    workload, so every round attempts the same operations."""
    a = wl.value("amplitude")
    found = {}
    if "coeffs" in wl.stages:
        found["coefficients closed form"] = lambda: \
            checks.coefficients_closed_form(out_dir, wl.value("collision"), a)
        found["spectrum rank one"] = lambda: \
            checks.spectrum_rank_one(out_dir, a)
    if "converge" in wl.stages:
        found["one functional mean gap"] = lambda: \
            checks.one_mean_gap(out_dir)
    if "simulate-kinetic" in wl.stages:
        found["checkpoint mass"] = lambda: checks.checkpoint_mass(out_dir)
        found["corrector falls"] = lambda: \
            checks.corrector_falls(out_dir, wl.value("epsilons"))
    if "simulate-spde" in wl.stages:
        found["spde one quantiles"] = lambda: \
            checks.spde_one_quantiles(out_dir)
        found["spde t=0 quantiles"] = lambda: \
            checks.spde_t0_quantiles(out_dir)
    return found


# what a check raises on a missing or malformed output file
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError)


def _attempt(fn):
    try:
        return fn()
    except CHECK_ERRORS as exc:
        return False, f"{type(exc).__name__}: {exc}"


def run_round(wl, seed, traced, rdir, reference):
    """One worker process plus the checks of its outputs."""
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    out_dir = os.path.join(rdir, "out")
    paths = {k: os.path.join(rdir, v) for k, v in
             [("config", "config.txt"), ("spec", "spec.json"),
              ("result", "result.json"), ("spans", "spans.npz"),
              ("log", "stages.log")]}
    with open(paths["config"], "w") as fh:
        fh.write(wl.config_text(seed, out_dir))
    with open(paths["spec"], "w") as fh:
        json.dump({"src": "src", "config": paths["config"],
                   "stages": list(wl.stages), "trace": traced,
                   "result": paths["result"], "spans": paths["spans"]}, fh)

    t_spawn = time.monotonic()
    with open(paths["log"], "w") as log:
        proc = subprocess.Popen([sys.executable, WORKER, paths["spec"]],
                                stdout=log, stderr=subprocess.STDOUT,
                                env=WORKER_ENV)
        try:
            proc.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    res = None
    if proc.returncode == 0 and os.path.exists(paths["result"]):
        with open(paths["result"]) as fh:
            res = json.load(fh)

    ops = []
    for i, stage in enumerate(wl.stages):
        st = res["stages"][i] if res else None
        ok = bool(st) and st["rc"] in STAGE_RC_OK.get(stage, (0,))
        detail = f"rc {st['rc']}" if ok else (
            f"rc {st['rc']}" + (f"\n{st['error']}" if st["error"] else "")
            if st else f"worker exit {proc.returncode}, see {paths['log']}")
        ops.append((f"stage {stage}", ok, detail))
    for name, fn in output_checks(wl, out_dir).items():
        ops.append((name, *_attempt(fn)))
    try:
        ok, detail, sums = checks.manifests_match(
            out_dir, [MANIFEST[s] for s in wl.stages])
    except CHECK_ERRORS as exc:
        ok, detail, sums = False, f"{type(exc).__name__}: {exc}", {}
    ops.append(("manifest checksums", ok, detail))
    ops.append(("checksums identical across rounds",
                *checks.same_checksums(sums, reference or sums)))

    rnd = {"ops": ops, "checksums": sums, "traced": traced, "wall_s": None}
    if "converge" in wl.stages:
        rnd["verdict"] = _attempt(lambda: checks.trend_verdict(out_dir))[1]
    if res:
        rnd["wall_s"] = res["t_done"] - t_spawn
        rnd["setup_s"] = res["t_ready"] - t_spawn
        rnd["peak_rss_mb"] = res["maxrss_kib"] * 1024 / 1e6
    if traced:
        rnd["output_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in os.listdir(out_dir)) if os.path.isdir(out_dir) else 0
        rnd["spans"] = paths["spans"] if res else None
    return rnd


def traced_metrics(wl, rnd, untraced_wall):
    """Per-layer metrics of a traced round, plus its two trace checks."""
    totals, counters, n_spans = spans.load_spans(rnd["spans"])
    m = spans.per_layer_metrics(totals, counters, n_spans,
                                rnd["output_bytes"], rnd["wall_s"],
                                untraced_wall)
    ops = [("self times within traced wall",
            *checks.self_time_within_wall(m["trace.self_s_sum"],
                                          rnd["wall_s"]))]
    if "converge" in wl.stages:
        ops.append(("lb jumps binomial", *checks.lb_jumps_binomial(
            m["kinetic.lb_jumps"], m["kinetic.lb_jumps_expected"],
            counters.get("kinetic.lb_jumps_var", 0.0))))
    return m, ops


def run_workload(name, seed, seconds, trace):
    """All rounds of one run; returns the result object printed last."""
    wl = WORKLOADS[name]
    run_dir = os.path.join(RUNS_DIR,
                           f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    t0 = time.monotonic()
    rounds, layer_rows, reference = [], [], None
    while True:
        t_round = time.monotonic()
        rdir = os.path.join(run_dir, f"round{len(rounds) + 1}")
        rnd = run_round(wl, seed, False, rdir, reference)
        reference = reference or rnd["checksums"]
        rounds.append(rnd)
        if trace:
            trnd = run_round(wl, seed, True, rdir + "-traced", reference)
            if trnd["spans"] and rnd["wall_s"] is not None:
                m, extra = traced_metrics(wl, trnd, rnd["wall_s"])
                layer_rows.append(m)
            else:
                extra = [("traced round finished", False,
                          "no spans from the traced worker")]
                extra += [("lb jumps binomial", False, "no spans")] \
                    if "converge" in wl.stages else []
            trnd["ops"] += extra
            rounds.append(trnd)
        elapsed = time.monotonic() - t0
        if elapsed >= seconds or \
                elapsed + (time.monotonic() - t_round) > RUN_LIMIT_S - 20:
            break

    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [(i + 1, n, d) for i, r in enumerate(rounds)
                for n, ok, d in r["ops"] if not ok]
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(rounds)} "
          f"rounds in {time.monotonic() - t0:.1f} s")
    for i, n, d in failures:
        print(f"  FAILED round {i}: {n}: {d}")
    if "verdict" in rounds[0]:
        print(f"  converge verdict (printed, not counted): "
              f"{rounds[0]['verdict']}")
    units = spans.PER_LAYER if trace else END_TO_END
    rows = layer_rows if trace else [r for r in rounds if not r["traced"]
                                     and r["wall_s"] is not None]
    if not rows:
        print("  no round produced timings", file=sys.stderr)
        return None
    metrics = {}
    for k, unit in units.items():
        vals = [row[k] for row in rows]
        metrics[k] = {"value": statistics.median(vals), "unit": unit}
        spread = f"  [{min(vals):.6g} .. {max(vals):.6g}]" \
            if len(vals) > 1 else ""
        print(f"  {k:42s} {metrics[k]['value']:>14.6g} {unit:5s}"
              f" (median of {len(vals)}){spread}")
    print(f"  operations: attempted {attempted}, failed {len(failures)}")
    if not failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "kinlim", "cli.py")):
        print("run from the root of a kinlim checkout: src/kinlim/cli.py "
              "not found", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    combined = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, args.seed, args.seconds, trace)
            if result is None:
                return 1
            combined[f"{name}/trace{trace}"] = result
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
