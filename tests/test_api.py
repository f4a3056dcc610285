"""The documented surface of the package: its exported names and the
README's library example."""

import ast
import contextlib
import dataclasses
import inspect
import io
import re
from pathlib import Path

import quiverstokes

README = Path(__file__).resolve().parent.parent / "README.md"


PUBLIC = [
    "Basis", "BraidWord", "Chamber", "DTModel", "EpsilonTensor",
    "EquivalenceCertificate", "EulerForm", "GoodQuiverSolution",
    "LatticeVector", "OrbitSearchResult", "PolyMatrix", "Quiver",
    "RayCollision", "StokesData", "SymbolicQuiver", "TruncatedPoly",
    "an_chamber", "an_stokes", "apply_word", "beta", "beta_inv",
    "check_quadratic", "check_vanishing_p3", "convex_charge",
    "epsilon_solutions", "euler_form", "factor_product", "find_good_quivers",
    "joyce_point", "level2_chamber", "linear_quiver", "lv_len", "lv_monomial",
    "mutate", "mutation_basis", "mutation_class", "natural_lifts",
    "orbit_search", "perm_conj", "ray_order", "sign_conj", "stokes_product",
    "verify_an_jet", "verify_braid_group_relations",
]


def test_public_surface_is_pinned():
    # a name enters or leaves the package only together with this list
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(quiverstokes.__all__) == PUBLIC


RESULT_FIELDS = {
    "EquivalenceCertificate": ["source", "target", "word", "verified"],
    "GoodQuiverSolution": ["quiver", "eps", "params"],
    "OrbitSearchResult": ["status", "certificate", "depth_reached", "states",
                          "pruned"],
    "StokesData": ["order", "factors", "product"],
}


def test_result_fields_are_pinned():
    # a field enters or leaves an exported result type only together with
    # this table
    assert {name: [f.name for f in dataclasses.fields(getattr(quiverstokes, name))]
            for name in RESULT_FIELDS} == RESULT_FIELDS


# every other exported type, by what a caller hands it: the parameters of a
# constructor, or the fields of a dataclass; a size or a field that another
# value already gives comes back only together with these tables
CONSTRUCTOR_PARAMETERS = {
    "Basis": ["rows"],
    "DTModel": ["kind", "fn"],
    "EulerForm": ["matrix"],
    "PolyMatrix": ["entries"],
    "TruncatedPoly": ["nvars", "terms"],
}
VALUE_FIELDS = {
    "BraidWord": ["moves"],
    "Chamber": ["Z", "active", "_zint"],
    "EpsilonTensor": ["n", "signs"],
    "LatticeVector": ["coords"],
    "Quiver": ["arrows"],
    "SymbolicQuiver": ["n", "arrows"],
}


def test_constructor_parameters_and_value_fields_are_pinned():
    classes = {name: getattr(quiverstokes, name) for name in quiverstokes.__all__
               if inspect.isclass(getattr(quiverstokes, name))
               and not issubclass(getattr(quiverstokes, name), Exception)
               and name not in RESULT_FIELDS}
    assert {name: list(inspect.signature(cls).parameters)
            for name, cls in classes.items()
            if not dataclasses.is_dataclass(cls)} == CONSTRUCTOR_PARAMETERS
    assert {name: [f.name for f in dataclasses.fields(cls)]
            for name, cls in classes.items()
            if dataclasses.is_dataclass(cls)} == VALUE_FIELDS


PARAMETERS = {
    "an_chamber": ["Z"],
    "an_stokes": ["n"],
    "apply_word": ["q", "word"],
    "beta": ["i", "A"],
    "beta_inv": ["i", "A"],
    "check_quadratic": ["basis", "e", "p"],
    "check_vanishing_p3": ["basis"],
    "convex_charge": ["n"],
    "epsilon_solutions": ["n", "domain"],
    "euler_form": ["q"],
    "factor_product": ["T", "positions"],
    "find_good_quivers": ["basis", "lam", "p"],
    "joyce_point": ["nvars"],
    "level2_chamber": ["q", "Z"],
    "linear_quiver": ["n"],
    "lv_len": ["v"],
    "lv_monomial": ["v"],
    "mutate": ["q", "k"],
    "mutation_basis": ["target"],
    "mutation_class": ["q", "max_size"],
    "natural_lifts": ["basis", "e", "model", "chambers", "p"],
    "orbit_search": ["S1", "S2", "depth", "entry_bound"],
    "perm_conj": ["sigma", "A"],
    "ray_order": ["chamber", "classes"],
    "sign_conj": ["k_or_vec", "A"],
    "stokes_product": ["basis", "e", "model", "chamber", "p"],
    "verify_an_jet": ["n", "samples"],
    "verify_braid_group_relations": ["n", "samples", "seed"],
}


def test_function_parameters_are_pinned():
    # a parameter enters or leaves an exported function only together with
    # this table
    functions = {name: getattr(quiverstokes, name) for name in quiverstokes.__all__
                 if inspect.isfunction(getattr(quiverstokes, name))}
    assert {name: list(inspect.signature(fn).parameters)
            for name, fn in functions.items()} == PARAMETERS


def test_every_exported_name_resolves():
    missing = [name for name in quiverstokes.__all__
               if not hasattr(quiverstokes, name)]
    assert not missing
    assert len(set(quiverstokes.__all__)) == len(quiverstokes.__all__)


def callables_of(obj):
    """A function itself; for a class every function, classmethod and
    staticmethod defined on it, ``__init__`` included."""
    if not inspect.isclass(obj):
        yield obj
        return
    for member in vars(obj).values():
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            yield member


def test_no_exported_callable_takes_a_truncation_bound():
    # polynomials are exact, and a jet is truncated once, by truncate(p)
    takers = [fn.__qualname__ for name in quiverstokes.__all__
              for fn in callables_of(getattr(quiverstokes, name))
              if "trunc" in inspect.signature(fn).parameters]
    assert takers == []
    assert quiverstokes.TruncatedPoly.__slots__ == ("nvars", "terms")


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue()
    assert "-s1*s2" in printed and "braid" in printed


# verify imports stokes_product without calling it: the benchmark's tracing
# test asserts that wrapping reaches a module that imported a name by name
UNUSED_IMPORTS_ALLOWED = {("verify", "stokes_product")}


def test_every_imported_name_is_used():
    # no linter is installed; this is the unused-import rule, on ast alone
    unused = []
    for path in sorted(Path(quiverstokes.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += sorted((path.stem, name) for name in imported - used)
    assert [u for u in unused if u not in UNUSED_IMPORTS_ALLOWED] == []


# The number rules of `algebra` that convert; a conversion inside them is the
# rule.
NUMBER_RULES = {("algebra", "_as_int"), ("algebra", "_as_fraction")}

# (module, function): why its bare conversion does not read input
CONVERSIONS_ALLOWED = {
    ("braid", "random_unipotent"):
        "Fraction(rng.randint(...)) wraps an int the generator drew",
}


def _names(target) -> set:
    """The names bound by an assignment or loop target."""
    return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}


def _reads(node, names) -> bool:
    """``node`` is one of ``names``, or an item, attribute or method result
    of one (``mv[1]``, ``data.items()``)."""
    while True:
        if isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        else:
            return isinstance(node, ast.Name) and node.id in names


def _own_nodes(fn):
    """The nodes of ``fn``'s body, not descending into nested functions,
    lambdas or classes, which are checked on their own."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _functions(tree):
    """Every function and lambda of ``tree``, with its parameters (not self
    or cls) and its own nodes."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = fn.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p} - {"self", "cls"}
            yield fn, params, list(_own_nodes(fn))


def bare_conversions(tree) -> list:
    """(function, line, call) of every int(x) or Fraction(x) where x is a
    parameter of the function (not self or cls), an item of one, or a loop
    or comprehension variable iterating over either."""
    found = []
    for fn, params, nodes in _functions(tree):
        loops = [(n.target, n.iter) for n in nodes
                 if isinstance(n, (ast.For, ast.comprehension))]
        grown = True
        while grown:
            before = len(params)
            for target, it in loops:
                if _reads(it, params):
                    params |= _names(target)
            grown = len(params) > before
        found += [(getattr(fn, "name", "<lambda>"), n.lineno, ast.unparse(n))
                  for n in nodes
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in ("int", "Fraction") and n.args
                  and _reads(n.args[0], params)]
    return found


def test_numbers_are_read_by_the_rules_of_algebra():
    # no linter is installed; on ast alone: outside the rules, no function
    # converts its own input with int() or Fraction(), which would truncate
    # 1.5, read True as 1 and '1_0' as 10; and no flag is typed int
    bare, typed = [], []
    for path in sorted(Path(quiverstokes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bare += [(path.stem, fn, line, call)
                 for fn, line, call in bare_conversions(tree)
                 if (path.stem, fn) not in NUMBER_RULES | set(CONVERSIONS_ALLOWED)]
        typed += [(path.stem, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.keyword) and node.arg == "type"
                  and isinstance(node.value, ast.Name) and node.value.id == "int"]
    assert bare == [] and typed == []


# The number rules of `algebra` that test a value's type or sign; such a
# test inside them is the rule.
TYPE_RULES = NUMBER_RULES | {("algebra", "_unit")}

# (module, function): why it tests a number's type or sign though it reads
# no input
NUMBER_TESTS_ALLOWED = {
    ("algebra", "__eq__"): "TruncatedPoly.__eq__ compares with a scalar",
    ("goodness", "_validate_mutation_basis"):
        "a unimodular test of the determinant the code computed",
}


def _number_type(node) -> bool:
    """``node`` names int, float or bool, or a type of the numbers module."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "numbers"
    return isinstance(node, ast.Name) and node.id in ("int", "float", "bool")


def number_tests(tree) -> list:
    """(function, line, test) of every isinstance call against a number type
    and every membership test in the literal (1, -1)."""
    found = []
    for fn, _, nodes in _functions(tree):
        for n in nodes:
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "isinstance" and len(n.args) == 2):
                types = n.args[1]
                hit = any(map(_number_type, types.elts if isinstance(types, ast.Tuple)
                              else [types]))
            else:
                hit = isinstance(n, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn))
                    and ast.unparse(c) == "(1, -1)"
                    for op, c in zip(n.ops, n.comparators))
            if hit:
                found.append((getattr(fn, "name", "<lambda>"), n.lineno,
                              ast.unparse(n)))
    return found


def test_numbers_are_typed_by_the_rules_of_algebra():
    # no linter is installed; on ast alone: outside the rules, no function
    # decides by itself whether a value is a number, an integer or +-1
    hits = set()
    for path in sorted(Path(quiverstokes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        hits |= {(path.stem, fn) for fn, _, _ in number_tests(tree)
                 if (path.stem, fn) not in TYPE_RULES}
    assert sorted(hits) == sorted(NUMBER_TESTS_ALLOWED)


# (module, function): why it compares a parameter with an integer literal
# though the comparison is not a size bound
BOUNDS_ALLOWED = {
    ("algebra", "_index"): "the index rule itself, 1 <= k <= n",
    ("stokes", "_in_upper"): "a sign test of a ray's coordinates",
    ("braid", "_sign_bits"): "a sign test of sign vectors",
    ("cli", "_parse_point"): "n > 1 picks which malformed --eval message applies",
    ("goodness", "arrow"): "the sign of an entry, in find_good_quivers",
}


def _int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def literal_bounds(tree) -> list:
    """(function, line, comparison) of every <, <=, > or >= comparison, a
    chain included, of an integer literal and a parameter of the function
    that the function does not rebind."""
    found = []
    for fn, params, nodes in _functions(tree):
        params -= {n.id for n in nodes
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for n in nodes:
            if not (isinstance(n, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in n.ops)):
                continue
            operands = [n.left, *n.comparators]
            if any(map(_int_literal, operands)) and any(
                    isinstance(x, ast.Name) and x.id in params for x in operands):
                found.append((getattr(fn, "name", "<lambda>"), n.lineno,
                              ast.unparse(n)))
    return found


def test_sizes_are_read_by_the_size_rule():
    # no linter is installed; on ast alone: a function that bounds one of
    # its parameters by a literal reads it first, by `algebra._size` (or
    # `_as_int` where a range test follows), so that True, 2.5 or a too
    # small value ends in a ValueError naming it, not a TypeError or a misread
    hits = set()
    for path in sorted(Path(quiverstokes.__file__).parent.glob("*.py")):
        hits |= {(path.stem, fn) for fn, _, _ in
                 literal_bounds(ast.parse(path.read_text()))}
    assert sorted(hits) == sorted(BOUNDS_ALLOWED)


# callee: its owners, as modules or (module, function); no other code in
# the package calls it, so each of these decisions lives in one place
OWNERS = {
    "convex_charge": {"stokes"},
    "poly_to_json": {"serialize"},
    "rjust": {("algebra", "_grid_text")},
    "_linear_extensions": {"algebra", ("braid", "_target_set")},
    "_clockwise": {("stokes", "__post_init__")},
    "_read_charge": {"stokes"},
    "braid_apply": {("_kernels", "expand_frontier")},
    "_braid_rows": {("braid", "_move")},
}


def calls_outside_owners(tree, module) -> list:
    """(module, function, line, callee) of every call in ``tree`` to a name of
    ``OWNERS``, as a function or a method, from outside its owners; a call
    outside every function belongs to "<module>"."""
    scopes = [("<module>", list(_own_nodes(tree)))] + [
        (getattr(fn, "name", "<lambda>"), nodes) for fn, _, nodes in _functions(tree)]
    found = []
    for name, nodes in scopes:
        for n in nodes:
            owners = isinstance(n, ast.Call) and OWNERS.get(
                getattr(n.func, "id", getattr(n.func, "attr", None)))
            if owners and not owners & {module, (module, name)}:
                found.append((module, name, n.lineno, ast.unparse(n.func)))
    return found


def test_decisions_have_one_owner():
    # no linter is installed; on ast alone: the auto chamber, the good-quiver
    # and polynomial layouts, the matrix grid, the least linear extension,
    # the clockwise sort, the charge reader and each of the two braid moves,
    # int64 and exact, are each decided by one function or module, which
    # every other caller reaches through it
    hits = []
    for path in sorted(Path(quiverstokes.__file__).parent.glob("*.py")):
        hits += calls_outside_owners(ast.parse(path.read_text()), path.stem)
    assert hits == []


# (module, function): the one function that rebinds a module global, the
# last orbit-search ball that searches from one source share
GLOBALS_ALLOWED = [("braid", "_ball_search")]
CACHES = {"cache", "lru_cache"}


def _decorator_name(node) -> str:
    """The name a decorator applies: ``cache`` for ``functools.cache``,
    ``lru_cache`` for ``lru_cache(maxsize=8)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_no_hidden_state_across_calls():
    # no linter is installed; on ast alone: no function rebinds a module
    # global but the one allowed, and no module-level function memoizes its
    # calls, so no other state outlives a call unseen
    rebinds, cached = [], []
    for path in sorted(Path(quiverstokes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        rebinds += [(path.stem, fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(isinstance(node, ast.Global) for node in _own_nodes(fn))]
        cached += [(path.stem, fn.name) for fn in tree.body
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and CACHES & {_decorator_name(d) for d in fn.decorator_list}]
    assert rebinds == GLOBALS_ALLOWED and cached == []
