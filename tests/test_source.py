"""Rules on the package source itself."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilb3"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements; every invariant check must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _imports(path, module):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return any(isinstance(node, ast.Import) and any(a.name == module for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == module
               for node in ast.walk(tree))


def test_one_text_grammar():
    # every text input is read by poly3's tokenizer; no other module uses re
    assert [p.name for p in sorted(SRC.glob("*.py")) if _imports(p, "re")] == ["poly3.py"]


def _finds_nonzeros(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return any(isinstance(node, ast.Attribute) and node.attr in ("nonzero", "flatnonzero")
               for node in ast.walk(tree))


def test_one_sparse_assembly():
    # sparse matrices are assembled from nonzero entries in gfp alone
    # (sylvester_entries, sparse_rank, rref and dense_entries, whose entries
    # of each M_e tanlin spreads over sum_e C_e (x) M_e); no other module
    # calls np.nonzero or np.flatnonzero
    assert [p.name for p in sorted(SRC.glob("*.py")) if _finds_nonzeros(p)] == ["gfp.py"]


def _top_level_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


EXPONENT_HELPERS = {"Exponent", "ORIGIN", "VAR_NAMES", "degrevlex_key", "exp_divides",
                    "exp_sub", "exp_lcm", "monomial_str"}


def test_one_exponent_vocabulary():
    # exponents are triples, and poly3 alone defines the helpers on them
    names = EXPONENT_HELPERS | {"ExponentVec", "ev_sub"}  # the old mono3 copies too
    defined = {p.name: _top_level_names(p) & names for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in defined.items() if found} == \
        {"poly3.py": EXPONENT_HELPERS}
    assert [p.name for p in sorted(SRC.glob("*.py")) if "nvars" in p.read_text()] == []


def _imports_or_names(path, module, name):
    """Whether the module imports `module` (absolutely, relatively or from
    the package) or names `name` as a variable, attribute or imported name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                module in a.name.split(".") for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                module in (node.module or "").split(".")
                or any(a.name in (module, name) for a in node.names)):
            return True
        if isinstance(node, ast.Name) and node.id == name \
                or isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


@pytest.mark.parametrize("route, other, table", [
    ("tancomb.py", "tanlin", "generator_lcms"),
    ("tanlin.py", "tancomb", "staircase_bits"),
])
def test_monomial_tangent_routes_stay_independent(route, other, table):
    # the bounded-component and graded routes cross-check each other, so
    # neither reads the other's module or the other's per-ideal table
    assert not _imports_or_names(SRC / route, other, table)


def _buchberger_callers(path):
    """(module, enclosing function) for every call of buchberger in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name) and child.func.id == "buchberger"
                    or isinstance(child.func, ast.Attribute) and child.func.attr == "buchberger"):
                callers.add((path.name, scope))
            visit(child, scope)

    visit(tree, None)
    return callers


def test_one_buchberger_entry():
    # a colon, an annihilator or any other ideal whose quotient is known is
    # read off one echelon form (poly3.span_ideal); only groebner and the
    # given-generator syzygies run Buchberger
    callers = set().union(*(_buchberger_callers(p) for p in sorted(SRC.glob("*.py"))))
    assert callers == {("poly3.py", "groebner"), ("tanlin.py", "generator_syzygies")}


def _functions_with_parameter(names):
    """(module, function) for every function of the package with a
    parameter of one of the names."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(arg is not None and arg.arg in names for arg in params):
                    found.add((path.stem, node.name))
    return found


def test_cofactor_rows_only_inside_buchberger():
    # cofactor rows live only while Buchberger builds its basis, with the
    # quotients of full division that Schreyer's syzygies read; the given-
    # generator syzygies are read off that basis, so no other function
    # tracks or takes rows of cofactors
    assert _functions_with_parameter({"track"}) == {("poly3", "buchberger"),
                                                    ("poly3", "reduce_full")}
    # these two take matrix rows (COO row indices) and plane-partition rows,
    # not cofactors; span_ideal takes the relations that cut its ideal out
    assert _functions_with_parameter({"rows"}) == {("gfp", "sparse_rank"),
                                                   ("mono3", "_canonical")}
    assert not [p.name for p in SRC.glob("*.py")
                if "sub_multiples" in p.read_text(encoding="utf-8")]


def _numpy_scopes(path):
    """(line numbers of module-level numpy imports, scopes that read np
    without binding it, whether an annotation names np) for one module.
    A function binds np by importing numpy in its own body, and its nested
    functions see that binding.  Annotations are not reads: under
    `from __future__ import annotations` they stay strings."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    annotations = [a for n in ast.walk(tree) for a in (
        [n.returns] if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        else [n.annotation] if isinstance(n, (ast.arg, ast.AnnAssign)) else []) if a]
    in_annotation = {id(n) for a in annotations for n in ast.walk(a)}
    top_imports, unbound = [], []

    def own_nodes(stmts):
        """The nodes of a scope; a nested function's body is its own scope,
        its decorators and defaults are this one's."""
        stack = list(stmts)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack += node.decorator_list + node.args.defaults \
                    + [d for d in node.args.kw_defaults if d]
            else:
                stack += ast.iter_child_nodes(node)

    def visit(stmts, name, bound):
        nodes = list(own_nodes(stmts))
        imports = [n for n in nodes if isinstance(n, ast.Import) and any(
            a.name == "numpy" for a in n.names) or isinstance(n, ast.ImportFrom)
            and n.module == "numpy"]
        if name is None:
            top_imports.extend(n.lineno for n in imports)
        bound = bound or any(isinstance(n, ast.Import) and any(
            a.name == "numpy" and a.asname == "np" for a in n.names) for n in imports)
        if not bound and any(isinstance(n, ast.Name) and n.id == "np"
                             and id(n) not in in_annotation for n in nodes):
            unbound.append(name or "<module>")
        for n in nodes:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(n.body, n.name, bound)

    visit(tree.body, None, False)
    return top_imports, unbound, any(isinstance(n, ast.Name) and n.id == "np"
                                     for a in annotations for n in ast.walk(a))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_imported_where_it_is_used(path):
    # `import hilb3.cli` and the combinatorial subcommands start without
    # numpy: no module imports it at its top, and every function reading np
    # imports it itself (or an enclosing function does), so a rarely run
    # path cannot meet a NameError
    top_imports, unbound, annotates_np = _numpy_scopes(path)
    assert top_imports == [], f"{path.name}: module-level numpy import at lines {top_imports}"
    assert unbound == [], f"{path.name}: np read without importing numpy in {unbound}"
    if annotates_np:
        assert "from __future__ import annotations" in path.read_text(encoding="utf-8"), \
            f"{path.name}: annotations name np but would be evaluated"
