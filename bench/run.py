"""Run the symtrace benchmark on one workload and print its metrics.

    python3 bench/run.py --workload routes --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the runner times passes of the workload, each in a fresh
interpreter started one after another (closed loop, one client, no threads),
until the next pass would overrun ``--seconds``; at least one pass always
runs.  It also starts a few interpreters that only set up, so that set-up
time has several samples.  Times are reported in units of a reference loop
timed inside each pass (see ``pace.py``), beside the plain seconds.  With
``--trace 1`` it runs one untraced pass and one traced pass and reports the
per-layer metrics.

Every pass checks its outputs (see ``one_pass.py``).  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric with its unit, ``failed_share``
included.  A run record with the machine and sample counts is written to
``bench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from pace import NOMINAL_S  # noqa: E402
from workloads import DEFAULT_SEED, PARAMS  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

# The metric names and units come from BENCHMARK.json, the one list of them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# The end-to-end times in plain seconds, unadjusted for the host's changing
# CPU speed, and the run's mean reference-loop duration; printed and recorded
# beside the metrics.  ``setup_s`` itself is scaled to the speed where one
# reference loop takes ``pace.NOMINAL_S``.
SECONDS = {
    "setup_plain_s": "s",
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_p99": "ms",
    "reference_loop_s": "s",
}


class PassError(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str, timeout: float) -> tuple:
    """Run ``one_pass.py`` in a fresh interpreter.

    Returns the pass result and the set-up seconds, from before the process
    starts to inputs ready.
    """
    cmd = [sys.executable, "-I", str(BENCH / "one_pass.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise PassError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                        else f"pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(workload: str, seed: int, seconds: float, t0: float):
    setups = []
    for _ in range(SETUP_SAMPLES):
        _, s = spawn(workload, seed, "--setup-only", timeout=RUN_LIMIT_S - (time.monotonic() - t0))
        setups.append(s)
    passes, durations = [], []
    while True:
        p0 = time.monotonic()
        result, s = spawn(workload, seed, timeout=RUN_LIMIT_S - (p0 - t0))
        durations.append(time.monotonic() - p0)
        setups.append(s)
        passes.append(result)
        elapsed = time.monotonic() - t0
        nxt = statistics.median(durations)
        if elapsed + nxt > seconds or elapsed + nxt > RUN_LIMIT_S:
            break
    # seconds per reference loop over the run, from the passes' probes
    unit = statistics.median(p["wall_s"] / p["wall_ref"] for p in passes)
    cases = [c for p in passes for c in p["case_ref"]]
    metrics = {
        "setup_s": statistics.median(setups) * NOMINAL_S / unit,
        "wall_ref": statistics.median(p["wall_ref"] for p in passes),
        "case_p50_ref": statistics.median(cases),
        "case_p99_ref": percentile(cases, 0.99),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = [c for p in passes for c in p["case_s"]]
    seconds_metrics = {
        "setup_plain_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "case_ms_p50": statistics.median(raw) * 1e3,
        "case_ms_p99": percentile(raw, 0.99) * 1e3,
        "reference_loop_s": unit,
    }
    samples = {
        "setup_s": len(setups),
        "wall_ref": len(passes),
        "case_p50_ref": len(cases),
        "case_p99_ref": len(cases),
        "case_p99_beyond": len(cases) - math.ceil(0.99 * len(cases)),
        "peak_rss_mb": len(passes),
        "probes": sum(p["probes"] for p in passes),
    }
    return passes, metrics, samples, seconds_metrics


def traced_run(workload: str, seed: int, t0: float):
    plain, _ = spawn(workload, seed, timeout=RUN_LIMIT_S - (time.monotonic() - t0))
    traced, _ = spawn(workload, seed, "--trace", timeout=RUN_LIMIT_S - (time.monotonic() - t0))
    stats = traced["stats"]
    metrics = {name: stats[name] for name in PER_LAYER if not name.startswith("bench.")}
    metrics["bench.trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    samples = {name: 1 for name in PER_LAYER}
    samples["spans"] = traced["spans"]
    return [plain, traced], metrics, samples, {}


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def proc_field(path: str, key: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="symtrace benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(PARAMS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symtrace" / "__init__.py").is_file():
        print(f"error: no symtrace package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    try:
        if args.trace:
            passes, metrics, samples, seconds = traced_run(args.workload, args.seed, t0)
        else:
            passes, metrics, samples, seconds = timed_run(args.workload, args.seed, args.seconds, t0)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    correct = failed == 0 and len(digests) == 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "params": PARAMS[args.workload],
        "commit": git_commit(),
        "machine": machine(),
        "execution": "passes run one at a time, each in its own fresh interpreter "
                     "process with no threads; a SIGALRM timer in the pass runs the "
                     "reference loop every 50 ms; the runner starts no threads",
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "seconds": {k: {"value": v, "unit": SECONDS[k]} for k, v in seconds.items()},
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digests": sorted(digests),
        "failures": [p["failures"] for p in passes if p["failures"]],
        "passes": [{"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"]} for p in passes],
        "span_file": passes[-1].get("span_file"),
        "layer_stats": passes[-1].get("stats"),
        "run_s": time.monotonic() - t0,
    }
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    for k, v in seconds.items():
        print(f"{k} = {v:.6g} {SECONDS[k]} (not adjusted for CPU speed)")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} cases)")
    if len(digests) != 1:
        print(f"error: passes disagree on the output digest: {sorted(digests)}", file=sys.stderr)
    for f in record["failures"]:
        print(f"failures: {json.dumps(f)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
