"""Record the expected-results files from the code as it stands.

    python3 bench/record_expected.py routes homology transfer bridge

For each workload this runs the default seed's cases, plus every case a
seeded draw can pick, through the workload's oracle and writes
``bench/expected/<workload>.json``: the parameters, the digest of each
case's rendered output, the pass digest at the default seed and, for
``homology``, the dimension tables.  Record again only when a change is
meant to alter outputs; the benchmark treats any other difference as a
failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from one_pass import import_package  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, digest, dims_rows, pass_digest  # noqa: E402


def record(name: str, params=None) -> dict:
    w = WORKLOADS[name]
    params = w.params if params is None else params
    cases = w.make_cases(params, DEFAULT_SEED)
    keys = [k for k, _ in cases]
    extra = [c for c in (w.population(params) if w.population else []) if c[0] not in set(keys)]
    ctx = w.prepare(params)
    digests, tables = {}, {}
    for key, inp in cases + extra:
        ok, out = w.run_case(ctx, inp)
        if not ok:
            raise SystemExit(f"{name}: oracle failed on {key}; not recording")
        digests[key] = digest(w.render(out))
        rows = dims_rows(out)
        if rows is not None:
            tables[key] = rows
    return {
        "workload": name,
        "seed": DEFAULT_SEED,
        "params": params,
        "digest": pass_digest(keys, digests),
        "tables": tables,
        "cases": dict(sorted(digests.items())),
    }


def main(names) -> int:
    import_package()
    (BENCH / "expected").mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        data = record(name)
        path = BENCH / "expected" / f"{name}.json"
        path.write_text(json.dumps(data, indent=0) + "\n")
        print(f"{name}: {len(data['cases'])} case digests -> {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
