"""Self-tests of the benchmark itself (not of symtrace).

    python3 -m pytest -q bench/test_bench.py

They run the real workload code on small parameters, so they finish in
seconds; the expected-results files of the full workloads are only checked
for staleness here.
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import one_pass  # noqa: E402

one_pass.import_package()

import run  # noqa: E402
from record_expected import record  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402
from workloads import DEFAULT_SEED, PARAMS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "routes": {
        "nvars": 2, "basis_weight_cap": 2, "basis_degree_cap": 2, "draw_weight": 3,
        "draw_count": 4, "sum_count": 3, "sum_terms": [2, 3], "sum_weight_cap": 2,
        "diffop_degree_cap": 2,
    },
    "homology": {
        "jobs": [
            ["homology", "--ambient", "A", "--vars", "1", "--weight", "3", "--deg", "2"],
            ["homology", "--ambient", "R", "--vars", "2", "--weight", "2", "--deg", "2"],
            ["verify", "derham", "--vars", "2", "--weight", "2", "--deg", "2"],
        ],
    },
    "transfer": {"nvars": 2, "weight_cap": 3, "degree_cap": 3, "k_max": 2},
    "bridge": {"nvars": 2, "label_cap": 2, "draw_nvars": 2, "draw_labels": 3, "draw_count": 4},
}
SAMPLED = ("routes", "bridge")


@pytest.fixture(scope="module")
def small_expected():
    return {name: record(name, SMALL[name]) for name in SMALL}


def test_names_are_plain():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(PARAMS) + list(run.SECONDS)
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(PARAMS)


def test_every_per_layer_metric_is_traced():
    tracer = Tracer()
    tracer.install()
    try:
        stats = tracer.stats()
    finally:
        tracer.uninstall()
    assert not installed_wrappers()
    assert set(run.PER_LAYER) - set(stats) == {"bench.trace_overhead"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name):
    w = WORKLOADS[name]
    keys = [k for k, _ in w.make_cases(w.params, 7)]
    assert keys == [k for k, _ in w.make_cases(w.params, 7)]
    other = [k for k, _ in w.make_cases(w.params, 8)]
    assert keys != other  # every workload shuffles its case order
    if name in SAMPLED:
        assert set(keys) != set(other)
    else:
        assert set(keys) == set(other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expected_files_match_params(name):
    expected = one_pass.load_expected(name)
    assert expected["params"] == PARAMS[name]
    assert expected["seed"] == DEFAULT_SEED


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_passes_and_is_not_vacuous(name, small_expected):
    exp = small_expected[name]
    ok = one_pass.run_pass(name, DEFAULT_SEED, False, SMALL[name], exp)
    assert ok["failed"] == 0 and ok["attempted"] > 0
    assert ok["digest"] == exp["digest"]

    key = sorted(exp["cases"])[0]
    bad = copy.deepcopy(exp)
    bad["cases"][key] = "0" * 16
    assert one_pass.run_pass(name, DEFAULT_SEED, False, SMALL[name], bad)["failed"] == 1

    bad = copy.deepcopy(exp)
    bad["digest"] = "0" * 16
    assert one_pass.run_pass(name, DEFAULT_SEED, False, SMALL[name], bad)["failed"] >= 1

    stale = dict(SMALL[name])
    stale[next(iter(stale))] = "changed"
    with pytest.raises(SystemExit):
        one_pass.gate(WORKLOADS[name], stale, DEFAULT_SEED, [], [], [], exp)


def test_gate_catches_a_wrong_dimension(small_expected):
    bad = copy.deepcopy(small_expected["homology"])
    key, rows = next(iter(bad["tables"].items()))
    rows[0][2] += 1
    result = one_pass.run_pass("homology", DEFAULT_SEED, False, SMALL["homology"], bad)
    assert result["failures"] == {key: "dimension table"}


def _exact_counts(stats):
    return {
        k: v for k, v in stats.items()
        if k.endswith((".calls", ".terms_copied"))
        or k.startswith(("cyclic.matrix_", "cyclic.basis_size", "ainfty.basis_words"))
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_and_outputs_match(name, small_expected):
    exp = small_expected[name]
    first = one_pass.run_pass(name, 3, True, SMALL[name], exp)
    assert not installed_wrappers()
    second = one_pass.run_pass(name, 3, True, SMALL[name], exp)
    plain = one_pass.run_pass(name, 3, False, SMALL[name], exp)
    assert first["failed"] == second["failed"] == plain["failed"] == 0
    assert first["digest"] == second["digest"] == plain["digest"]
    counts = _exact_counts(first["stats"])
    assert counts == _exact_counts(second["stats"])
    assert all(counts[k] >= 0 for k in counts) and any(counts.values())
    assert first["spans"] == second["spans"] > 0


def test_pace_divides_each_stretch_by_the_local_reference():
    pace = Pace()
    # seven probes, one per second; the host halves its speed after the third
    durations = [0.1, 0.1, 0.1, 0.2, 0.2, 0.2, 0.2]
    pace.starts = [float(i) for i in range(7)]
    pace.ends = [s + d for s, d in zip(pace.starts, durations)]
    pace.smooth()
    assert pace.raw(0.5, 5.5) == pytest.approx(5.0 - sum(durations[1:6]))
    # a stretch inside the slow part counts half as much per second
    fast, slow = pace.ref(0.2, 0.9), pace.ref(5.3, 5.9)
    assert fast == pytest.approx(0.7 / 0.1) and slow == pytest.approx(0.6 / 0.2)
    # one outlying probe does not move its neighbours
    pace.ends[1] = pace.starts[1] + 0.01
    pace.smooth()
    assert pace.ref(0.2, 0.9) == pytest.approx(fast)
