"""Every name a perfbase module imports is used in that module, every
private name the package defines is used somewhere in it, importing
the cli loads no numpy while importing `construct` or `rmcode` does,
every public name of the package is its module's object, building
the power-family bases loads no module more, and
`Field.encode` is the package's only rule for turning a scalar into an
encoding, `FqMatrix.outer` its only builder of a product matrix u v^t,
`Field.sub_scaled` its only row combination acc + c * row,
`exactla._combine` its only vector times a matrix (no one-row matrix
literal and no `.basis[i]` is the left operand of `@`), no
module-level function is an alias that only forwards to a method, and
no module outside `gf` reads a field's log, antilog and Zech tables or
names `_Int64Field`, the int64 form each field builds once, no module
outside `gf` names a piece of the backend rule `_backend` (its constants,
or the int64 and float64 bounds it absorbed) or compares a field's `.deg`
to branch on its kind, no module outside
`exactla` reads a private attribute of an `Echelon` it built, only
`exactla._scan_guard` and `tensor3._guard_exceeded` build a
`GuardExceeded`, and every `functools.lru_cache` holds at most 64 entries
and is named in the README's "Per-process memos".

No linter ships with the test dependencies, so this walks the syntax trees
with the standard library.  `__init__.py` re-exports names and is skipped.
"""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

import perfbase

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "perfbase"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nprint(np, a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unreferenced_private_names(sources):
    """Private module-level names and private methods that no source uses.

    A use is a loaded name or an attribute access anywhere in `sources`
    (module name -> text), so a dead knob or helper shows up even when
    another module of the package once imported it.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if _is_private(name)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef) and _is_private(item.name)]
    return sorted((module, name) for module, name in defined
                  if name.rsplit(".", 1)[-1] not in used)


def test_every_private_name_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_private_name_check_sees_dead_knobs_and_methods():
    sources = {
        "a.py": "_LIMIT = 4096\n_USED = 1\ndef _dead(): pass\n"
                "class C:\n    def _slow(self): pass\n    def _fast(self): pass\n"
                "    def __init__(self): self._fast()\n",
        "b.py": "from .a import _USED\nprint(_USED)\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", "C._slow"), ("a.py", "_LIMIT"), ("a.py", "_dead")]


def local_scalar_rules(source: str):
    """Lines of the conditionals (`if` or `x if c else y`) that both test
    `isinstance(..., FieldElement)` and read `.enc`: a copy of the rule that
    `Field.encode` owns."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        tests_type = any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "isinstance" and len(n.args) == 2
            and "FieldElement" in ast.unparse(n.args[1])
            for n in ast.walk(node.test))
        reads_enc = any(isinstance(n, ast.Attribute) and n.attr == "enc"
                        for n in ast.walk(node))
        if tests_type and reads_enc:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf.py"],
                         ids=lambda p: p.name)
def test_scalars_are_encoded_only_by_the_field(path):
    assert local_scalar_rules(path.read_text()) == []


def test_scalar_rule_check_sees_local_copies():
    source = ("a = v.enc if isinstance(v, FieldElement) else int(v) % q\n"
              "if isinstance(w, (int, FieldElement)):\n    b = w.enc\n"
              "c = [x if isinstance(x, FieldElement) else None for x in xs]\n"
              "if not isinstance(g, FieldElement):\n    raise TypeError\n"
              "d = g.field.encode(g)\n")
    assert local_scalar_rules(source) == [1, 2]


_COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.SetComp)


def hand_built_products(source: str):
    """Lines of the comprehensions whose element is a comprehension (bare or
    wrapped in one call, as in `tuple(...)`) whose element is a bare
    `.mul(...)` call: the matrix u v^t that `FqMatrix.outer` builds."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _COMPREHENSIONS):
            continue
        inner = node.elt
        if isinstance(inner, ast.Call) and len(inner.args) == 1:
            inner = inner.args[0]
        if (isinstance(inner, _COMPREHENSIONS) and isinstance(inner.elt, ast.Call)
                and isinstance(inner.elt.func, ast.Attribute)
                and inner.elt.func.attr == "mul"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_product_matrices_are_built_only_by_outer(path):
    assert hand_built_products(path.read_text()) == []


def test_product_matrix_check_sees_hand_built_copies():
    source = ("A = FqMatrix(F, [[F.mul(a, b) for b in v] for a in u])\n"
              "B = tuple(tuple(F.mul(a, b) for b in v) for a in u)\n"
              "words = ([F.add(F.mul(a, x), y) for x, y in zip(r0, r1)]\n"
              "         for a in range(F.q))\n"
              "C = [F.mul(c, a) for a in row]\n")
    assert hand_built_products(source) == [1, 2]


def _is_method_call(node, names):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names)


def hand_built_combinations(source: str):
    """Lines of the comprehensions whose element is an `.add(...)` or
    `.sub(...)` call with a `.mul(...)` call among its arguments: the row
    update acc + c * row that `Field.sub_scaled` does with one log lookup."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, _COMPREHENSIONS) and _is_method_call(node.elt, ("add", "sub"))
        and any(_is_method_call(arg, ("mul",)) for arg in node.elt.args))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_row_combinations_go_through_sub_scaled(path):
    assert hand_built_combinations(path.read_text()) == []


def test_row_combination_check_sees_hand_built_copies():
    source = ("acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, row)]\n"
              "words = ([F.add(F.mul(a, x), y) for x, y in zip(r0, r1)]\n"
              "         for a in range(F.q))\n"
              "rem = (F.sub(r, F.mul(f, o)) for r, o in zip(rem, other))\n"
              "acc = F.add(acc, F.mul(a, b))\n"
              "C = [F.mul(c, a) for a in row]\n"
              "D = [F.add(a, b) for a, b in zip(u, v)]\n"
              "E = [F.add(F.neg(a), b) for a, b in zip(u, v)]\n")
    assert hand_built_combinations(source) == [1, 2, 4]


def _is_one_row_matrix(node):
    """`FqMatrix(F, [v])` or `FqMatrix._of(F, (v,))`: one row wrapped as a matrix."""
    if not (isinstance(node, ast.Call) and len(node.args) == 2
            and isinstance(node.args[1], (ast.List, ast.Tuple))
            and len(node.args[1].elts) == 1):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "_of":
        func = func.value
    return isinstance(func, ast.Name) and func.id == "FqMatrix"


def wrapped_vector_products(source: str):
    """Lines of the `@` products whose left operand is a one-row matrix
    literal or a `.basis[i]` subscript: a vector times a matrix, which is
    `exactla._combine` of the vector with the matrix's rows."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        and (_is_one_row_matrix(node.left)
             or isinstance(node.left, ast.Subscript)
             and isinstance(node.left.value, ast.Attribute)
             and node.left.value.attr == "basis"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_vector_times_matrix_goes_through_combine(path):
    assert wrapped_vector_products(path.read_text()) == []


def test_vector_product_check_sees_wrapped_rows():
    source = ("w = (FqMatrix(F, [orbit[-1]]) @ M).rows[0]\n"
              "x = FqMatrix._of(F, (row,)) @ G @ H\n"
              "pi = (shifted.basis[0] @ gamma._G).rows[0]\n"
              "P = FqMatrix(F, rows) @ M\n"
              "Q = FqMatrix(F, [[1, 2], [3, 4]]) @ M\n"
              "R = Lam @ B @ mult_pi\n"
              "S = M @ FqMatrix(F, [v])\n"
              "T = [B @ M for B in space.basis]\n")
    assert wrapped_vector_products(source) == [1, 2, 3]


def alias_wrappers(source: str):
    """Names of the module-level functions whose body, past a docstring, is
    only `return arg0.method(*rest)`, with the other parameters passed on in
    order: a second name for a method."""
    names = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if not (len(body) == 1 and isinstance(body[0], ast.Return) and params):
            continue
        call = body[0].value
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == params[0] and not call.keywords
                and [ast.unparse(arg) for arg in call.args] == params[1:]):
            names.append(node.name)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_only_forwards_to_a_method(path):
    assert alias_wrappers(path.read_text()) == []


def test_alias_check_sees_forwarding_functions():
    source = ("def rref(M):\n    return M.rref()\n"
              "def transform(V, L, N):\n    \"\"\"Doc.\"\"\"\n    return V.transform(L, N)\n"
              "def swapped(V, L, N):\n    return V.transform(N, L)\n"
              "def checked(A, B):\n    A.check(B)\n    return A.pair(B)\n"
              "def helper(x):\n    return len(x)\n"
              "class C:\n    def rank(self):\n        return self.rref()\n")
    assert alias_wrappers(source) == ["rref", "transform"]


_FIELD_TABLES = ("_log", "_antilog", "_zech")


def field_table_reads(source: str):
    """Lines that read a field's `_log`, `_antilog` or `_zech` table."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in _FIELD_TABLES)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf.py"],
                         ids=lambda p: p.name)
def test_only_the_int64_kernel_reads_field_tables(path):
    # the int64 form is built by gf with the tables, so no module outside
    # gf has a reason to read them
    assert field_table_reads(path.read_text()) == []


def test_field_table_check_sees_copies_of_the_tables():
    copy = ("class _Tables:\n"
            "    def __init__(self, field):\n"
            "        self.field, self.q, order = field, field.q, field.q - 1\n"
            "        if field.deg > 1:\n"
            "            self.log = np.array([2 * order] + field._log[1:], dtype=np.int64)\n"
            "            self.antilog = np.array(field._antilog + [0] * (order + 1),"
            " dtype=np.int64)\n"
            "            self.zech = np.array(field._zech, dtype=np.int64)\n")
    assert field_table_reads(copy) == [5, 6, 7]
    exactla = (SRC / "exactla.py").read_text()
    assert len(field_table_reads(exactla)) == 0


def int64_form_names(source: str):
    """Lines that name `_Int64Field`: as a name, an attribute or an import."""
    tree = ast.parse(source)
    return sorted({n.lineno for n in ast.walk(tree)
                   if (isinstance(n, ast.Name) and n.id == "_Int64Field")
                   or (isinstance(n, ast.Attribute) and n.attr == "_Int64Field")
                   or (isinstance(n, ast.ImportFrom)
                       and any(a.name == "_Int64Field" for a in n.names))})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf.py"],
                         ids=lambda p: p.name)
def test_only_gf_names_the_int64_form(path):
    # every other module takes a field's int64 form from `Field._int64`
    assert int64_form_names(path.read_text()) == []


def test_int64_form_check_sees_every_naming():
    source = ("from .gf import Field, _Int64Field\n"
              "arith = _Int64Field(field)\n"
              "arith = gf._Int64Field(field)\n"
              "arith = field._int64\n")
    assert int64_form_names(source) == [1, 2, 3]
    assert int64_form_names((SRC / "gf.py").read_text()) != []


def _names_float(node) -> bool:
    """Whether a dtype argument names float64: float, np.float64 or its strings."""
    return ((isinstance(node, ast.Name) and node.id in ("float", "float64"))
            or (isinstance(node, ast.Attribute) and node.attr in ("float64", "double"))
            or (isinstance(node, ast.Constant)
                and node.value in ("float", "float64", "f8", "<f8", "double")))


def float64_forms(source: str):
    """Lines that form a float64 array: np.float64 anywhere, or float64 as a
    `dtype=` keyword or as the argument of `astype`."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and n.attr in ("float64", "double"):
            lines.add(n.lineno)
        elif isinstance(n, ast.keyword) and n.arg == "dtype" and _names_float(n.value):
            lines.add(n.value.lineno)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr == "astype" and n.args and _names_float(n.args[0])):
            lines.add(n.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf.py"],
                         ids=lambda p: p.name)
def test_only_gf_forms_float64_arrays(path):
    # float64 products are exact only where `gf._backend` says so, which the
    # int64 form asks before it forms one
    assert float64_forms(path.read_text()) == []


def test_float64_check_sees_every_form():
    source = ("P = C.astype(np.float64)\n"
              "P = np.zeros(3, dtype=float)\n"
              "P = C.astype('f8')\n"
              "P = np.array(rows, dtype=np.double)\n"
              "bound = float('inf')\n"
              "P = C.astype(np.int64)\n")
    assert float64_forms(source) == [1, 2, 3, 4]
    assert float64_forms((SRC / "gf.py").read_text()) != []


def backend_rule_names(gf_source: str):
    """The names of the backend rule: `_backend`'s module-level constants,
    the ones it reads, and the two bounds it absorbed."""
    tree = ast.parse(gf_source)
    constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)}
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_backend")
    read = {n.id for n in ast.walk(rule) if isinstance(n, ast.Name)}
    return {"_int64_safe", "_float64_exact"} | (constants & read)


def names_of(source: str, names):
    """Lines that name one of `names`: as a name, an attribute or an import."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if (isinstance(n, ast.Name) and n.id in names)
                   or (isinstance(n, ast.Attribute) and n.attr in names)
                   or (isinstance(n, ast.ImportFrom)
                       and any(a.name in names for a in n.names))})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf.py"],
                         ids=lambda p: p.name)
def test_only_gf_holds_the_backend_rule(path):
    # every lists / int64 / float64 / object choice asks `gf._backend`, so no
    # other module holds a threshold or a bound of its own
    names = backend_rule_names((SRC / "gf.py").read_text())
    assert names_of(path.read_text(), names) == []


def test_backend_rule_check_sees_every_naming():
    names = backend_rule_names((SRC / "gf.py").read_text())
    assert {"_ECHELON_MIN_WIDTH", "_SCAN_MIN_WORDS", "_FLOAT64_MIN_WORK"} <= names
    assert "_P_LIMIT" not in names
    source = ("from .gf import Field, _int64_safe\n"
              "exact = gf._float64_exact(field, 3)\n"
              "wide = width >= _ECHELON_MIN_WIDTH\n"
              "dtype = _backend(field, 'array')\n")
    assert names_of(source, names) == [1, 2, 3]


def field_kind_tests(source: str):
    """Lines of the comparisons that read a `.deg`: a branch on a field's
    kind.  `args.deg`, the command line's flag, is not a field's."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.Compare)
                   for side in (n.left, *n.comparators) for a in ast.walk(side)
                   if isinstance(a, ast.Attribute) and a.attr == "deg"
                   and not (isinstance(a.value, ast.Name) and a.value.id == "args")})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf.py"],
                         ids=lambda p: p.name)
def test_only_gf_branches_on_a_fields_kind(path):
    # prime and extension fields differ only inside gf's arithmetic, so every
    # other module has one path for both
    assert field_kind_tests(path.read_text()) == []


def test_field_kind_check_sees_every_comparison():
    source = ("if F.deg == 1:\n    pass\n"
              "wide = self.field.deg > 1\n"
              "m = ext.deg\n"
              "if kind.prime_only and args.deg != 1:\n    pass\n"
              "prime = 1 == len(rows) and 1 < M.field.deg\n")
    assert field_kind_tests(source) == [1, 3, 7]
    assert field_kind_tests((SRC / "gf.py").read_text()) != []


# the one function per module that may build a GuardExceeded
_GUARD_OWNERS = {"exactla.py": "_scan_guard", "tensor3.py": "_guard_exceeded"}


def guard_constructions(source: str, owner=None):
    """Lines that call `GuardExceeded(...)`, bare or as an attribute,
    outside the function named `owner`."""
    tree = ast.parse(source)
    owned = {id(n) for f in ast.walk(tree)
             if isinstance(f, ast.FunctionDef) and f.name == owner for n in ast.walk(f)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in owned
                  and getattr(n.func, "id", getattr(n.func, "attr", None)) == "GuardExceeded")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_guard_errors_are_built_by_their_owners(path):
    # the scan rule and the oracle's guard each build their GuardExceeded in
    # one place, so `progress` has one shape per phase
    assert guard_constructions(path.read_text(), _GUARD_OWNERS.get(path.name)) == []


def test_guard_construction_check_sees_inline_raises():
    source = ("def _scan_guard(needed, guard):\n"
              "    raise GuardExceeded('over', progress={})\n"
              "def completion(pairs, guard):\n"
              "    if pairs > guard:\n"
              "        raise GuardExceeded(\n"
              "            'completion scan exceeded its guard', progress={})\n"
              "try:\n    completion(2, 1)\nexcept GuardExceeded as exc:\n    raise exc\n"
              "error = errors.GuardExceeded('over')\n")
    assert guard_constructions(source, "_scan_guard") == [5, 11]
    assert guard_constructions(source) == [2, 5, 11]
    # each owner really builds one
    for name in _GUARD_OWNERS:
        assert len(guard_constructions((SRC / name).read_text())) == 1, name


def _builds_echelon(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return ((isinstance(func, ast.Name) and func.id == "Echelon")
            or (isinstance(func, ast.Attribute) and func.attr == "Echelon"))


def echelon_private_reads(source: str):
    """Lines that read a private attribute of a name bound to `Echelon(...)`."""
    tree = ast.parse(source)
    bound = {t.id for n in ast.walk(tree)
             if isinstance(n, ast.Assign) and _builds_echelon(n.value)
             for t in n.targets if isinstance(t, ast.Name)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in bound and _is_private(n.attr))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "exactla.py"],
                         ids=lambda p: p.name)
def test_no_module_reads_an_echelons_private_state(path):
    # `verify_base` asks `gf._backend` which backend its echelon runs on
    # rather than reading the echelon's own flag
    assert echelon_private_reads(path.read_text()) == []


def test_echelon_read_check_sees_private_reads():
    source = ("span = Echelon(field, 4)\n"
              "if span._np:\n"
              "    rows = span._rows\n"
              "r = span.rank, V._rrows\n"
              "E = exactla.Echelon(field, 4, rows)\n"
              "pivots = E._pivots\n")
    assert echelon_private_reads(source) == [2, 3, 6]


def memos_section() -> str:
    """The "Per-process memos" section of the README, up to the next heading."""
    text = (SRC.parent.parent / "README.md").read_text()
    return text.split("## Per-process memos\n", 1)[1].split("\n## ", 1)[0]


def undocumented_memos(source: str, documented: str):
    """Lines of the `lru_cache` and `cache` decorators that may hold more
    than 64 entries, or whose function `documented` does not name in
    backticks (as `name` or `Owner.name`)."""
    lines = []
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)]
    for node in functions:
        for dec in node.decorator_list:
            func = dec.func if isinstance(dec, ast.Call) else dec
            kind = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if kind not in ("lru_cache", "cache"):
                continue
            size = 128 if kind == "lru_cache" else None  # the defaults
            if isinstance(dec, ast.Call):
                given = dec.args + [k.value for k in dec.keywords if k.arg == "maxsize"]
                size = given[0].value if given and isinstance(given[0], ast.Constant) else None
            named = re.search(rf"`(\w+\.)*{node.name}`", documented)
            if not (type(size) is int and size <= 64 and named):
                lines.append(dec.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_memo_is_small_and_documented(path):
    # a memo lives as long as the process, so each is bounded and the README
    # says what it keeps
    assert undocumented_memos(path.read_text(), memos_section()) == []


def test_memo_check_sees_large_and_undocumented_memos():
    documented = "`_seed`, `Basis.power`, `_table` and `_big`"
    source = ("@functools.lru_cache(maxsize=64)\ndef _seed(q): pass\n"
              "class Basis:\n    @staticmethod\n    @lru_cache(32)\n"
              "    def power(q): pass\n"
              "@functools.lru_cache(maxsize=64)\ndef _hidden(q): pass\n"
              "@functools.lru_cache\ndef _table(q): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef _big(q): pass\n"
              "@functools.cache\ndef _seed(q): pass\n"
              "@functools.cached_property\ndef _seed(q): pass\n")
    assert undocumented_memos(source, documented) == [7, 9, 11, 13]
    # the package's memos are exactly these three
    memos = "`_cached_field`, `power`, `_mtr_core`"
    assert [undocumented_memos(p.read_text(), memos) for p in MODULES] == [[]] * len(MODULES)
    assert sum(len(undocumented_memos(p.read_text(), "")) for p in MODULES) == 3


def imported_modules(source: str):
    """Top-level names of the modules a source imports from."""
    mods = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            mods.add(node.module.split(".")[0])
    return mods


def test_rmcode_imports_no_numpy():
    assert "numpy" not in imported_modules((SRC / "rmcode.py").read_text())
    assert "numpy" in imported_modules("from numpy import int64\n")


def loads_numpy(statement: str) -> bool:
    """Whether a fresh interpreter has numpy loaded after `statement`."""
    code = f"import sys\n{statement}\nprint('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_importing_the_cli_does_not_load_numpy():
    # gf, exactla and tensor3 import numpy on first use, and the cli imports
    # construct and rmcode only to construct, so `verify` starts without it
    assert not loads_numpy("import perfbase, perfbase.cli")


@pytest.mark.parametrize("module", ["construct", "rmcode"])
def test_importing_the_constructions_loads_numpy(module):
    # construct imports numpy at module top, so a library construction pays
    # for it at import and never inside its first timed call
    assert loads_numpy(f"import perfbase.{module}")


def test_every_public_name_is_its_modules_object():
    # the package resolves its names on first use: each is the object its
    # defining module holds, and each module name is that module; the 88
    # names are those it exported when it imported every module at once
    modules = {"errors", "gf", "exactla", "tensor3", "construct", "rmcode"}
    assert perfbase.__all__ == sorted(set(perfbase.__all__)) and len(perfbase.__all__) == 88
    assert modules <= set(perfbase.__all__)
    for name in perfbase.__all__:
        got = getattr(perfbase, name)
        if name in modules:
            assert got is importlib.import_module(f"perfbase.{name}"), name
        else:
            owner = got.__module__
            assert owner.split(".")[1] in modules, name
            assert got is getattr(sys.modules[owner], name), name
    assert set(perfbase.__all__) <= set(dir(perfbase))
    with pytest.raises(AttributeError):
        getattr(perfbase, "no_such_name")


BUILD_THE_SWEEP_BASES = """
import sys
import perfbase
from perfbase import construct as c
before = set(sys.modules)
F13, F7 = perfbase.field_make(13), perfbase.field_make(7)
spec = c.CompanionSpec(F13, 6, (1, 2, 3, 4, 5, 6))
B = perfbase.FqMatrix(F13, [[int(j in (i, i + 1)) for j in range(6)] for i in range(6)])
results = [c.base_dual_powers(spec, 3), c.base_dual_powers_rect(spec, 4, 2),
           c.base_left_factor(spec, 2, B),
           c.base_singular(c.CompanionSpec(F7, 5, (0, 3, 1, 2, 4)), 3),
           c.atkinson_base(4, F7)]
assert all(r.report.passed for r in results)
print(sorted(set(sys.modules) - before))
"""


def test_building_the_power_bases_imports_no_more_modules():
    # numpy's np.setdiff1d, np.isin and np.unique with inverse import numpy.ma
    # on first use, which every fresh process would pay for; the bases of
    # the construct sweep, on numpy and on lists, need only what
    # `import perfbase` loaded
    out = subprocess.run([sys.executable, "-c", BUILD_THE_SWEEP_BASES],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
