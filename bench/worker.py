"""One workload process: import kinlim, load the config, run the stages.

Usage: python3 bench/worker.py <spec.json>

The spec names the checkout's `src` directory, the config file, the stages
and where to write the result (and, when tracing, the spans).  The stages
run through `kinlim.cli.main`, exactly as `kinlim <stage> --config <file>`
would run them, and pass data to each other only through the CSV files in
the config's out_dir.  The result JSON holds CLOCK_MONOTONIC readings, which
the parent compares with its own reading taken just before it started this
process, so set-up time includes interpreter start.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import kinlim.cli
    from kinlim.config import ExperimentConfig
    if not os.path.abspath(kinlim.__file__).startswith(src + os.sep):
        raise ImportError(f"kinlim imported from {kinlim.__file__}, "
                          f"not from {src}")
    ExperimentConfig.load(spec["config"]).validate()
    t_ready = time.monotonic()

    rec = None
    if spec["trace"]:
        import spans
        rec = spans.SpanRecorder()
        spans.install(rec)
    stages = []
    for stage in spec["stages"]:
        span = rec.begin(f"cli.{stage}") if rec else None
        rc, error = None, None
        try:
            rc = kinlim.cli.main([stage, "--config", spec["config"]])
        except Exception:  # a failed stage is counted, the next one still runs
            error = traceback.format_exc()
        finally:
            if rec:
                rec.finish(span)
        stages.append({"stage": stage, "rc": rc, "error": error})
    t_done = time.monotonic()
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()

    if rec:
        rec.save(spec["spans"])
    result = {"t_ready": t_ready, "t_done": t_done,
              "maxrss_kib": maxrss_kib, "stages": stages}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
