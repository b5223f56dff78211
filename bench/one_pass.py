"""One benchmark pass in a fresh interpreter.

    python3 -I bench/one_pass.py --workload routes --seed 0 [--trace] [--setup-only]

A pass models one ``symtrace`` command: it imports the package from the
checkout's ``src/``, generates the workload's inputs (set-up), then runs
every case once, timing each, and checks every output against the
workload's oracle and the expected-results file.  It prints one JSON object
on its last stdout line.  ``run.py`` starts passes one at a time; a pass
starts no thread or process of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from pace import Pace  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, digest, dims_rows, pass_digest  # noqa: E402


def import_package():
    """Import ``symtrace`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "symtrace" / "__init__.py").is_file():
        raise SystemExit(f"error: no symtrace package under {src}")
    sys.path.insert(0, str(src))
    import symtrace
    import symtrace.cli  # noqa: F401  (imports every module the workloads use)

    if Path(symtrace.__file__).resolve().parent != (src / "symtrace").resolve():
        raise SystemExit(f"error: symtrace imported from {symtrace.__file__}, not {src}")


def load_expected(name: str) -> dict:
    with open(BENCH / "expected" / f"{name}.json") as fh:
        return json.load(fh)


def gate(workload, params, seed: int, keys, outputs, ok, expected: dict):
    """Compare rendered outputs with the expected-results file.

    Returns the failure reason of each failed case and the pass digest.  A case
    fails when its oracle failed, it raised, its digest differs from the
    recorded one, or (``homology``) its dimension table differs.  At the
    recorded seed the digest over all cases must also match.
    """
    if expected["params"] != params:
        raise SystemExit(f"error: expected-results file for {workload.name} is stale")
    case_digests = {}
    reasons = {}
    for key, out, good in zip(keys, outputs, ok):
        if not good:
            reasons[key] = out if isinstance(out, str) else "oracle"
            continue
        case_digests[key] = digest(workload.render(out))
        want = expected["cases"].get(key)
        if want is not None and want != case_digests[key]:
            reasons[key] = "digest"
        table = expected.get("tables", {}).get(key)
        if table is not None and dims_rows(out) != table:
            reasons[key] = "dimension table"
    total = pass_digest(keys, case_digests)
    if seed == expected["seed"] and total != expected["digest"] and not reasons:
        reasons["<pass>"] = "pass digest"
    return reasons, total


def run_pass(name: str, seed: int, trace: bool, params=None, expected=None, spans_path=None):
    """Run one pass in this process and return its result.

    ``params`` and ``expected`` default to the workload's own; a traced
    pass writes its spans to ``spans_path`` when one is given.
    """
    workload = WORKLOADS[name]
    if params is None:
        params = workload.params
    cases = workload.make_cases(params, seed)
    ready = time.monotonic()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    elif installed_wrappers():
        raise SystemExit("error: untraced pass found tracing wrappers installed")
    stamps, outputs, ok = [], [], []
    clock = time.perf_counter
    pace = Pace()
    with contextlib.ExitStack() as stack:
        if tracer:
            stack.callback(tracer.uninstall)
        else:
            stack.enter_context(pace)
        t0 = clock()
        ctx = workload.prepare(params)
        for case_id, (_, inp) in enumerate(cases):
            if tracer:
                tracer.case = case_id
            c0 = clock()
            try:
                good, out = workload.run_case(ctx, inp)
            except Exception as exc:  # a raising case is a failed case
                good, out = False, f"{type(exc).__name__}: {exc}"
            stamps.append((c0, clock()))
            outputs.append(out)
            ok.append(good)
        t1 = clock()
    keys = [k for k, _ in cases]
    if expected is None:
        expected = load_expected(name)
    reasons, total = gate(workload, params, seed, keys, outputs, ok, expected)
    result = {
        "workload": name,
        "seed": seed,
        "ready": ready,
        "wall_s": pace.raw(t0, t1),
        "case_s": [pace.raw(a, b) for a, b in stamps],
        "attempted": len(cases),
        "failed": len(reasons),
        "failures": dict(list(reasons.items())[:20]),
        "digest": total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result.update(stats=tracer.stats(), spans=len(tracer.span_name))
        if spans_path is not None:
            tracer.write_spans(spans_path)
            result["span_file"] = str(spans_path.relative_to(ROOT))
    else:
        result.update(
            wall_ref=pace.ref(t0, t1),
            case_ref=[pace.ref(a, b) for a, b in stamps],
            probes=len(pace.starts),
        )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    import_package()
    if args.setup_only:
        w = WORKLOADS[args.workload]
        w.make_cases(w.params, args.seed)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    print(json.dumps(run_pass(args.workload, args.seed, args.trace, spans_path=spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
