"""The package defines no public name that only the tests call, and its
layers import downward only.

Every public function, class and method under ``src/symtrace`` must be
referenced somewhere in the package besides its own definition, be exported
in ``symtrace.__all__``, or be listed below with the reason it stays.  The
math modules never import the trace routes or the command line, which check
them.
"""

import ast
from collections import Counter
from pathlib import Path

import symtrace

SRC = Path(symtrace.__file__).resolve().parent

# name -> why it is kept although nothing in the package reads it
ALLOWED = {
    "matrices": "the benchmark tracer reads ChainComplexQ.matrices",
    "build_connes_complex": "the every-block complex the tests compare homology_dims with",
    "homology": "ranks every block of build_connes_complex, the reference for homology_dims",
    "delta_letter": "the benchmark's per-layer metric resolution.delta_letter.calls names it",
    "mu": "the benchmark tracer patches MerkulovData.mu",
    "derham_quotient_dims": "the benchmark's homology oracle calls it",
    "equal_mod_exact": "the README documents equality modulo exact forms",
    "add_term": "the README documents it, and the tests build elements with it",
    "hkr_eps": "the README documents the HKR pair",
    "hkr_I": "the README documents the HKR pair",
}


def public_definitions(tree):
    """Every public top-level function or class and every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item


def references(node):
    """How often each name is read in the subtree of node, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced(src_dir, allowed):
    """module:line name of each public definition read nowhere else in src_dir,
    unless exported or allowed."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src_dir.glob("*.py"))}
    total = sum((references(t) for t in trees.values()), Counter())
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in public_definitions(tree)
        if total[node.name] == references(node)[node.name]
        and node.name not in symtrace.__all__
        and node.name not in allowed
    ]


def test_every_public_definition_is_used_by_the_package():
    assert unreferenced(SRC, ALLOWED) == []


def test_every_allowed_name_is_needed():
    # an entry that the package itself now reads, or that no longer exists, goes
    flagged = {entry.split()[-1] for entry in unreferenced(SRC, {})}
    assert set(ALLOWED) <= flagged


# modules under check by the trace routes and the CLI suites
MATH_MODULES = ("gcalg", "derham", "resolution", "cyclic", "ainfty")


def symtrace_imports(tree):
    """The symtrace modules that a module's import statements name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("symtrace.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "symtrace":
                    continue
                module = module[len("symtrace."):]
            out |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return out


def test_symtrace_imports_reads_every_import_form():
    code = ("from .trace import a\nfrom . import cli\nimport symtrace.gcalg\n"
            "from symtrace import derham\nfrom symtrace.ainfty import b\nimport os\n"
            "from itertools import product\n")
    assert symtrace_imports(ast.parse(code)) == {"trace", "cli", "gcalg", "derham", "ainfty"}


def test_math_modules_import_neither_the_trace_routes_nor_the_cli():
    upward = {
        name: sorted(symtrace_imports(ast.parse((SRC / f"{name}.py").read_text())) & {"trace", "cli"})
        for name in MATH_MODULES
    }
    assert upward == {name: [] for name in MATH_MODULES}


def lru_cache_bounds(tree):
    """(line, maxsize) of every ``lru_cache`` named in tree, by line; maxsize is None
    unless the name is called with an integer maxsize."""
    called = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    out = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name != "lru_cache":
            continue
        call = called.get(id(node))
        size = None
        if call is not None:
            given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
            if given and isinstance(given[0], ast.Constant) and type(given[0].value) is int:
                size = given[0].value
        out.append((node.lineno, size))
    return sorted(out)


def test_lru_cache_bounds_reads_every_form():
    code = ("from functools import lru_cache\nimport functools\n@lru_cache\ndef a(): pass\n"
            "@functools.lru_cache()\ndef b(): pass\nc = lru_cache(maxsize=None)(a)\n"
            "@lru_cache(maxsize=8)\ndef d(): pass\n@functools.lru_cache(16)\ndef e(): pass\n")
    assert lru_cache_bounds(ast.parse(code)) == [(3, None), (5, None), (7, None), (8, 8), (10, 16)]


def test_every_cache_states_an_integer_bound():
    bounds = {f"{p.name}:{line}": size for p in sorted(SRC.glob("*.py"))
              for line, size in lru_cache_bounds(ast.parse(p.read_text()))}
    assert bounds and all(type(size) is int for size in bounds.values()), bounds


def denominator_reads(tree):
    """The name of the innermost function around each ``.denominator`` read in
    tree, in source order; None at module or class level."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "denominator":
                out.append(fn)
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_fn else fn)

    visit(tree, None)
    return out


def test_denominator_reads_reads_every_form():
    code = ("x.denominator\ndef f(c):\n    return c.denominator\nclass A:\n    y = z.denominator\n"
            "    def g(self):\n        def h():\n            return self.c.denominator.bit_length()\n"
            "        return self.denominator\nk = lambda c: c.denominator\n")
    assert denominator_reads(ast.parse(code)) == [None, "f", None, "h", "g", "<lambda>"]


def test_only_gcalg_crosses_between_fractions_and_integers():
    # gcalg's lift, over and int_sum own every crossing
    reads = {p.stem: denominator_reads(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert reads.pop("gcalg")
    assert {f"{module}.{fn}" for module, fns in reads.items() for fn in fns} == set()


def call_sites(tree, name):
    """The name of the innermost function around each call of ``name`` in tree,
    in source order; None at module or class level."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            called = getattr(child, "func", None)
            if isinstance(child, ast.Call) and name in (getattr(called, "id", None),
                                                        getattr(called, "attr", None)):
                out.append(fn)
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_fn else fn)

    visit(tree, None)
    return out


def test_call_sites_reads_every_form():
    code = ("E()\ndef f():\n    raise E('x')\nclass A:\n    y = E\n"
            "    def g(self):\n        def h():\n            return E(1)\n"
            "        return m.E(2)\nk = lambda: E()\n")
    assert call_sites(ast.parse(code), "E") == [None, "f", "h", "g", "<lambda>"]


def test_one_map_loop_serves_the_simple_and_F_routes():
    # cs and the bridge cocycle keep their own enumerations, so that the
    # route and conj1 checks do not lean on the code they check
    called = sorted(f"{p.stem}.{fn}" for p in sorted(SRC.glob("*.py"))
                    for fn in call_sites(ast.parse(p.read_text()), "block_maps"))
    assert called == ["cyclic._beta_terms", "trace._cs_enumerate", "trace._map_terms"]


def test_one_loop_multiplies_lam_letters():
    # gcalg.lam_letters walks the argument lists and multiplies the letter
    # signs; lam_product multiplies the letters, _lam_word concatenates them
    called = sorted(f"{p.stem}.{fn}" for p in sorted(SRC.glob("*.py"))
                    for fn in call_sites(ast.parse(p.read_text()), "lam_letters"))
    assert called == ["gcalg.lam_product", "resolution._lam_word"]


def test_only_gcalg_and_derham_read_the_lam_kind():
    # gcalg.letter_args is the one read-back of a letter's indices; derham
    # reads the kind only to refuse a Form that holds a lam letter
    read = [p.stem for p in sorted(SRC.glob("*.py"))
            if references(ast.parse(p.read_text()))["LAM_KIND"]]
    assert read == ["derham", "gcalg"]


def test_only_gcalg_refuses_over_the_budget():
    # gcalg.charge owns every budget refusal and its message; the one other
    # ResourceLimitError is the homotopy's refusal of a word outside the caps
    made = {p.stem: call_sites(ast.parse(p.read_text()), "ResourceLimitError")
            for p in sorted(SRC.glob("*.py"))}
    assert made.pop("gcalg") == ["charge"]
    assert {f"{module}.{fn}" for module, fns in made.items() for fn in fns} == {"ainfty._h_int"}


def test_only_gcalg_and_the_class_meter_read_the_budget():
    # gcalg.grown forms every growing count only until it passes the budget;
    # the class generator's per-class meter is the one other reader
    read = {p.stem: call_sites(ast.parse(p.read_text()), "max_basis_budget")
            for p in sorted(SRC.glob("*.py"))}
    assert {f"{module}.{fn}" for module, fns in read.items() for fn in fns} == {
        "gcalg.charge", "gcalg.grown", "cyclic._classes"}


def test_derham_needs_no_linear_algebra_and_no_budget():
    # exactness witnesses come from the Euler homotopy: no system is solved
    # and no basis is built, so nothing is charged
    tree = ast.parse((SRC / "derham.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    names = imported | set(references(tree))
    assert names & {"echelon", "echelon_split", "Echelon", "charge", "max_basis_budget"} == set()
