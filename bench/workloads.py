"""The four benchmark workloads: seeded inputs, one pass of cases, oracles.

A workload turns a seed into a list of cases (``make_cases``, the set-up
part of a pass), prepares per-pass state inside the timed region
(``prepare``), and runs one case at a time (``run_case``), returning whether
the case's independent oracle held and an output that is rendered to text
after the timed region.  Inputs are generated here; the package only sees
the generated forms, tuples and argument lists.

Every case has a stable key.  The expected-results files map keys to a
digest of the rendered output, so any seed's cases are checked bit-for-bit
wherever the key was recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import product
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# The seed whose pass digest the expected-results files record.
DEFAULT_SEED = 0

# Parameters of each workload.  The passes run exactly these sizes; the
# self-tests call the same functions with smaller ones.
PARAMS: Dict[str, Dict[str, Any]] = {
    "routes": {
        "nvars": 4,
        "basis_weight_cap": 4,
        "basis_degree_cap": 4,
        "draw_weight": 5,
        "draw_count": 64,
        "sum_count": 100,
        "sum_terms": [2, 5],
        "sum_weight_cap": 3,
        "diffop_degree_cap": 2,
    },
    "homology": {
        "jobs": [
            ["homology", "--ambient", "A", "--vars", "2", "--weight", "4", "--deg", "3"],
            ["homology", "--ambient", "A", "--vars", "3", "--weight", "3", "--deg", "3"],
            ["homology", "--ambient", "A", "--vars", "2", "--weight", "3", "--deg", "4"],
            ["homology", "--ambient", "A", "--vars", "1", "--weight", "7", "--deg", "4"],
            ["homology", "--ambient", "R", "--vars", "2", "--weight", "3", "--deg", "4"],
            ["verify", "derham", "--vars", "3", "--weight", "5", "--deg", "3"],
        ],
    },
    "transfer": {"nvars": 3, "weight_cap": 5, "degree_cap": 3, "k_max": 3},
    "bridge": {
        "nvars": 4,
        "label_cap": 4,
        "draw_nvars": 3,
        "draw_labels": 5,
        "draw_count": 120,
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pass_digest(keys, case_digests: Dict[str, str]) -> str:
    """Digest over every case of a pass, independent of case order."""
    return digest("\n".join(f"{k}\t{case_digests.get(k, '-')}" for k in sorted(keys)))


def _stratified_sample(rng: random.Random, items: List[Any], strata: Callable, count: int):
    """Draw ``count`` items, each stratum in proportion to its size.

    Drawing per stratum keeps the mix of cheap and expensive inputs the same
    for every seed, so seeds change which inputs run but not the total cost.
    """
    groups: Dict[Any, List[Any]] = {}
    for it in items:
        groups.setdefault(strata(it), []).append(it)
    keys = sorted(groups)
    exact = {k: count * len(groups[k]) / len(items) for k in keys}
    quota = {k: int(exact[k]) for k in keys}
    by_remainder = sorted(keys, key=lambda k: (quota[k] - exact[k], k))
    for k in by_remainder[: count - sum(quota.values())]:
        quota[k] += 1
    out = []
    for k in keys:
        out.extend(rng.sample(groups[k], quota[k]))
    return out


# -- routes ---------------------------------------------------------------------


def _cost_shape(mono) -> Tuple:
    """Polynomial exponents, form degree, and the exponents of the dx variables.

    Forms of one shape enumerate the same number of trace assignments up to
    relabelling, so the shape is the stratum of the weight-5 draw.
    """
    from symtrace.gcalg import X_KIND

    exps = {g[1]: e for g, e in mono if g[0] == X_KIND}
    dxs = [g[1] for g, _ in mono if g[0] != X_KIND]
    return (
        tuple(sorted(exps.values(), reverse=True)),
        len(dxs),
        tuple(sorted((exps.get(i, 0) for i in dxs), reverse=True)),
    )


def _routes_basis(p: Dict[str, Any], weights) -> List[Tuple[int, int, Any]]:
    from symtrace.derham import form_basis

    n = p["nvars"]
    return [
        (w, deg, m)
        for w in weights
        for deg in range(min(p["basis_degree_cap"], n) + 1)
        for m in form_basis(n, w, deg)
    ]


def _routes_case(p: Dict[str, Any], w: int, deg: int, mono) -> Tuple[str, Any]:
    from symtrace.derham import Form
    from symtrace.gcalg import AlgebraElement, render

    form = Form(AlgebraElement.from_monomial(mono), p["nvars"])
    return f"w{w}p{deg}:{render(form.body)}", form


def routes_population(p: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """Every form the weight-5 draw can pick."""
    return [_routes_case(p, *b) for b in _routes_basis(p, [p["draw_weight"]])]


def routes_cases(p: Dict[str, Any], seed: int) -> List[Tuple[str, Any]]:
    from symtrace.derham import Form
    from symtrace.gcalg import AlgebraElement, render

    rng = random.Random(seed)
    basis = _routes_basis(p, range(p["basis_weight_cap"] + 1))
    cases = [_routes_case(p, *b) for b in basis]
    pool = _routes_basis(p, [p["draw_weight"]])
    drawn = _stratified_sample(rng, pool, lambda b: _cost_shape(b[2]), p["draw_count"])
    cases.extend(_routes_case(p, *b) for b in drawn)
    lo, hi = p["sum_terms"]
    monos = [m for w, _, m in basis if 0 < w <= p["sum_weight_cap"]]
    keys = set()
    while len(keys) < p["sum_count"]:
        body = AlgebraElement.zero()
        for m in rng.sample(monos, rng.randint(lo, hi)):
            num = rng.choice([-3, -2, -1, 1, 2, 3])
            body = body + AlgebraElement.from_monomial(m, Fraction(num, rng.randint(1, 4)))
        key = f"sum:{render(body)}"
        if key not in keys:
            keys.add(key)
            cases.append((key, Form(body, p["nvars"])))
    rng.shuffle(cases)
    return cases


def routes_run(ctx, form) -> Tuple[bool, Any]:
    from symtrace.derham import bigrade_split, d
    from symtrace.trace import F_eval, cs_trace_raw, trace_diffop, trace_simple

    a = cs_trace_raw(form)
    b = trace_simple(form)
    c = F_eval(d(form))
    ok = a == b == c
    if ok and all(deg <= ctx["diffop_degree_cap"] for _, deg, _ in bigrade_split(form)):
        ok = a == trace_diffop(form)
    return ok, a


def render_element(value) -> str:
    from symtrace.gcalg import render

    return render(value)


# -- homology -------------------------------------------------------------------


def homology_cases(p: Dict[str, Any], seed: int) -> List[Tuple[str, Any]]:
    cases = [(" ".join(job), list(job)) for job in p["jobs"]]
    random.Random(seed).shuffle(cases)
    return cases


def _flag(argv: List[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def dims_rows(output) -> Optional[List[List[int]]]:
    """The dimension table of a ``homology`` job as [degree, weight, dim] rows."""
    if not isinstance(output, dict) or "dims" not in output:
        return None
    return [[e["degree"], e["weight"], e["dim"]] for e in output["dims"]]


def homology_run(ctx, argv: List[str]) -> Tuple[bool, Any]:
    """One CLI job; the oracle is independent of the job's own computation.

    ``homology --ambient A`` must equal the de Rham quotient dimensions;
    ``--ambient R`` must equal the ``A`` table at the same caps, computed
    here by the same quotient; a ``verify`` job must report zero failures.
    """
    from symtrace import cli, cyclic

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--json"])
    payload = json.loads(buf.getvalue())
    payload.pop("wall_time_s", None)
    if argv[0] == "verify":
        ok = code == 0 and payload["failures"] == 0 and payload["cases"] > 0
        return ok, payload
    nv, w, deg = _flag(argv, "--vars"), _flag(argv, "--weight"), _flag(argv, "--deg")
    quotient = cyclic.derham_quotient_dims(nv, w, deg)
    ok = code == 0 and dims_rows(payload) == [[n, wt, v] for (n, wt), v in sorted(quotient.items())]
    return ok, payload


def render_payload(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# -- transfer -------------------------------------------------------------------


def transfer_cases(p: Dict[str, Any], seed: int) -> List[Tuple[str, Any]]:
    from symtrace import ainfty
    from symtrace.gcalg import render

    cases = []
    for k in range(1, p["k_max"] + 1):
        for args in ainfty.monomial_tuples(p["nvars"], k + 1, p["weight_cap"]):
            cases.append((f"k{k}:" + ",".join(render(a) for a in args), list(args)))
    random.Random(seed).shuffle(cases)
    return cases


def transfer_prepare(p: Dict[str, Any]):
    from symtrace import ainfty

    md = ainfty.build_merkulov(p["nvars"], p["weight_cap"], p["degree_cap"])
    trees = {k: ainfty.enumerate_pbt(k) for k in range(1, p["k_max"] + 1)}
    return md, trees


def transfer_run(ctx, args) -> Tuple[bool, Any]:
    """Tree expansion of the transfer component, and the class tree sum
    against the slot-expansion trace of a0 da1 ... dak."""
    from symtrace import ainfty
    from symtrace.derham import Form, d
    from symtrace.resolution import RElement
    from symtrace.trace import cs_trace_raw

    md, trees = ctx
    lhs = md.f_taylor(args)
    rhs = RElement.zero()
    for t in trees[len(args) - 1]:
        rhs = rhs + ainfty.tree_sign(t) * md.f_tree(t, args)
    body = args[0]
    for a in args[1:]:
        body = body * d(Form(a, md.nvars)).body
    tree_sum = ainfty.class_tree_sum(md, args)
    ok = (lhs - rhs).is_zero() and tree_sum == cs_trace_raw(Form(body, md.nvars))
    return ok, (lhs, tree_sum)


def render_transfer(value) -> str:
    from symtrace.gcalg import render

    lhs, tree_sum = value
    words = sorted((repr(w), str(c)) for w, c in lhs.terms.items())
    return json.dumps([words, render(tree_sum)])


# -- bridge ---------------------------------------------------------------------


def _label_cases(nvars: int, total: int):
    for n in range(total + 1):
        for u in product(range(1, nvars + 1), repeat=total):
            yield f"N{nvars}n{n}p{total - n}:" + "".join(map(str, u)), (u, n, total - n, nvars)


def bridge_population(p: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """Every label tuple the seeded draw can pick."""
    return list(_label_cases(p["draw_nvars"], p["draw_labels"]))


def _label_shape(case) -> Tuple:
    """Number of polynomial labels and the multiplicities of the labels."""
    u, n, _, _ = case[1]
    return n, tuple(sorted(u.count(v) for v in set(u)))


def bridge_cases(p: Dict[str, Any], seed: int) -> List[Tuple[str, Any]]:
    rng = random.Random(seed)
    cases = []
    for total in range(1, p["label_cap"] + 1):
        cases.extend(_label_cases(p["nvars"], total))
    cases.extend(_stratified_sample(rng, bridge_population(p), _label_shape, p["draw_count"]))
    rng.shuffle(cases)
    return cases


def bridge_run(ctx, labels) -> Tuple[bool, Any]:
    """The bridge chain is closed, its one-slot part abelianizes to the
    combinatorial trace, and its coalgebra image is d of the form."""
    from symtrace import cyclic
    from symtrace.derham import d
    from symtrace.resolution import abelianize
    from symtrace.trace import trace_simple

    u, n, deg, nvars = labels
    beta = cyclic.beta_cocycle(u, n, deg)
    closed = cyclic.boundary(beta).canonicalized().is_zero()
    alpha = cyclic.form_from_labels(u, n, deg, nvars)
    words = cyclic.beta_one_slot_words(beta)
    ab = abelianize(words)
    co = cyclic.eps_coalgebra(words, nvars)
    ok = closed and ab == trace_simple(alpha) and co == d(alpha)
    return ok, (beta, ab, co)


def render_bridge(value) -> str:
    from symtrace.gcalg import render

    beta, ab, co = value
    terms = sorted((repr(k), str(c)) for k, c in beta.terms.items())
    return json.dumps([terms, render(ab), render(co.body)])


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: Callable  # (params, seed) -> [(key, input)]
    run_case: Callable  # (ctx, input) -> (oracle held, output)
    render: Callable  # output -> text that is digested
    prepare: Callable = lambda params: params  # params -> ctx, timed
    population: Optional[Callable] = None  # params -> every case a draw can pick

    @property
    def params(self) -> Dict[str, Any]:
        return PARAMS[self.name]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("routes", routes_cases, routes_run, render_element,
                 population=routes_population),
        Workload("homology", homology_cases, homology_run, render_payload),
        Workload("transfer", transfer_cases, transfer_run, render_transfer,
                 prepare=transfer_prepare),
        Workload("bridge", bridge_cases, bridge_run, render_bridge,
                 population=bridge_population),
    )
}
