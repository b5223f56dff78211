"""Out-of-tree tracing for the benchmark's traced pass.

The tracer wraps the public functions of every ``symtrace`` module from the
outside and rebinds each wrapper under every name that refers to the
original function in any ``symtrace.*`` namespace, so calls made through a
``from .gcalg import lam_letter`` binding are seen too.  A few methods are
patched on their classes.  Nothing inside ``src/`` changes.

Two kinds of wrapper exist.  Kernels that run up to millions of times per
pass (every ``gcalg`` function, the helpers in ``COUNT_ONLY``, and generator
functions, whose body runs in the caller) only count calls, and their time
is part of the caller's self time.  Everything else
records a span: name, start, end, parent span and the case id set by the
pass.  Spans are kept in compact arrays in memory and written out once at
the end.  Self time is a span's duration minus the time of its child spans;
busy time (``s``) counts only the outermost span of a name, so recursion is
not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List

MODULES = ("gcalg", "derham", "resolution", "trace", "cyclic", "ainfty", "cli")

# Small helpers that run once per word, letter, slot or assignment block; a
# span each would cost more than the work they do.  The trace evaluators
# behind ``cs_trace_raw`` are counted only, so that the route's enumeration
# shows up as its self time.
COUNT_ONLY = {
    "trace.theta_omega_q",
    "trace.theta_eval",
    "trace.omega_eval",
    "cyclic.cyclic_canonical",
    "ainfty.leaf_count",
    "ainfty.labeled_class_key",
    "resolution.letter_degree",
    "resolution.letter_weight",
    "resolution.word_degree",
    "resolution.word_weight",
    "cyclic.chain_degree",
    "cyclic.chain_weight",
    "derham.monomial_bidegree",
}

# Class methods patched in place.  ``__add__`` and ``__sub__`` share one
# name; they also count the terms they copy from the left operand.
SUM_METHODS = (("gcalg", "AlgebraElement"), ("resolution", "RElement"))
SPAN_METHODS = (("ainfty", "MerkulovData", ("h", "mu", "f_taylor")),)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.busy_s: List[float] = []
        self._depth: List[int] = []
        self.counters: Dict[str, float] = {}
        self.case = -1
        self._stack: List[int] = []
        self._child: List[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: List[tuple] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.busy_s.append(0.0)
            self._depth.append(0)
        return nid

    def _count_wrapper(self, fn, name):
        nid, calls = self._id(name), self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sum_wrapper(self, fn, name):
        nid, calls, counters = self._id(name), self.calls, self.counters
        key = name + ".terms_copied"
        counters[key] = 0

        @functools.wraps(fn)
        def wrapper(left, right):
            calls[nid] += 1
            counters[key] += len(left.terms)
            return fn(left, right)

        return wrapper

    def _span_wrapper(self, fn, name, after=None):
        nid = self._id(name)
        calls, self_s, busy_s, depth = self.calls, self.self_s, self.busy_s, self._depth
        stack, child = self._stack, self._child
        sn, sp, sc = self.span_name, self.span_parent, self.span_case
        ss, se = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = len(sn)
            sn.append(nid)
            sp.append(stack[-1] if stack else -1)
            sc.append(tracer.case)
            ss.append(0.0)
            se.append(0.0)
            stack.append(idx)
            child.append(0.0)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                self_s[nid] += dur - child.pop()
                depth[nid] -= 1
                if not depth[nid]:
                    busy_s[nid] += dur
                if child:
                    child[-1] += dur
                ss[idx] = t0
                se[idx] = t1
            if after is not None:
                # time spent reading the result is charged to nobody's self time
                t2 = clock()
                after(result)
                if child:
                    child[-1] += clock() - t2
            return result

        return wrapper

    # -- result readers --------------------------------------------------------

    def _read_complex(self, cpx):
        c = self.counters
        c["cyclic.basis_size"] += sum(len(v) for v in cpx.basis.values())
        for mat in cpx.matrices.values():
            if mat:
                c["cyclic.matrix_cells"] += len(mat) * len(mat[0])
                c["cyclic.matrix_nnz"] += sum(1 for row in mat for v in row if v)

    def _read_merkulov(self, md):
        self.counters["ainfty.basis_words"] += sum(len(v) for v in md.basis.values())

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for key in ("cyclic.basis_size", "cyclic.matrix_cells", "cyclic.matrix_nnz",
                    "ainfty.basis_words"):
            self.counters[key] = 0
        after = {
            "cyclic.build_connes_complex": self._read_complex,
            "ainfty.build_merkulov": self._read_merkulov,
        }
        wrappers: Dict[int, tuple] = {}
        for short in MODULES:
            mod = sys.modules[f"symtrace.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if short == "gcalg" or name in COUNT_ONLY or inspect.isgeneratorfunction(obj):
                    w = self._count_wrapper(obj, name)
                else:
                    w = self._span_wrapper(obj, name, after.get(name))
                wrappers[id(obj)] = (obj, w)
        for modname, mod in list(sys.modules.items()):
            if modname != "symtrace" and not modname.startswith("symtrace."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for short, cls_name in SUM_METHODS:
            cls = getattr(sys.modules[f"symtrace.{short}"], cls_name)
            for meth in ("__add__", "__sub__"):
                self._patch(cls, meth, self._sum_wrapper(vars(cls)[meth], f"{short}.{cls_name}.add"))
        for short, cls_name, meths in SPAN_METHODS:
            cls = getattr(sys.modules[f"symtrace.{short}"], cls_name)
            for meth in meths:
                self._patch(cls, meth, self._span_wrapper(vars(cls)[meth], f"{short}.{cls_name}.{meth}"))

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, vars(owner)[attr]))
        wrapper.__bench_traced__ = True
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.s"] = self.busy_s[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        out.update(self.counters)
        cells = out.get("cyclic.matrix_cells", 0)
        out["cyclic.matrix_density"] = out.get("cyclic.matrix_nnz", 0) / cells if cells else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Write the span table: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [
                ["name", "i"], ["parent", "i"], ["case", "i"],
                ["start", "d"], ["end", "d"],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_case,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def installed_wrappers() -> List[str]:
    """Names of traced wrappers currently bound anywhere in ``symtrace``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "symtrace" and not modname.startswith("symtrace."):
            continue
        for attr, obj in vars(mod).items():
            if getattr(obj, "__bench_traced__", False):
                found.append(f"{modname}.{attr}")
            if isinstance(obj, type):
                found.extend(
                    f"{modname}.{attr}.{m}" for m, v in vars(obj).items()
                    if getattr(v, "__bench_traced__", False)
                )
    return found
