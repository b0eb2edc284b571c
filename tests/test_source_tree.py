"""Static checks over the package source, read module by module with ast."""
import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "partmotion").rglob("*.py"))
PERFBENCH = sorted(p for p in (SRC.parent / "perfbench").rglob("*.py") if not p.name.startswith("test_"))
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "scipy", "partmotion"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def declared_all(path: Path):
    """The literal value of the module's top-level __all__, or None."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def imported_top_level(path: Path) -> set[str]:
    """The top-level names of the modules path imports, its own relative imports left out."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports are the package's own
            imported.add(node.module)
    return {name.split(".")[0] for name in imported}


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_imports_only_stdlib_numpy_scipy_or_own(path):
    # pure numpy/scipy: the package needs nothing else installed
    assert imported_top_level(path) <= ALLOWED_TOP_LEVEL


def test_only_the_dataset_module_imports_json():
    # one JSON reader and writer, datagen.dataset's read_json and write_json,
    # so every JSON file fails the same way when it is malformed
    assert [module_name(path) for path in MODULES if "json" in imported_top_level(path)] == [
        "partmotion.datagen.dataset"]


def _unused_imports(tree: ast.Module, exported) -> list[str]:
    """The names tree imports that it never reads and does not list in
    exported; `from __future__` names a compiler feature, not a name to read."""
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
             for alias in node.names]
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)} | set(exported)
    return [name for name in bound if name not in read]


def test_unused_import_check_reads_each_form():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from typing import Optional, Sequence\nfrom .metrics import MobilityEval, summarize\n"
              "x: Optional[int] = summarize(os.path.sep)\n")
    assert _unused_imports(ast.parse(source), ["Sequence"]) == ["j", "MobilityEval"]


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_every_imported_name_is_read_or_exported(path):
    # an import that nothing reads is left over from code that is gone
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree, declared_all(path) or []) == []


EXPORTING = [path for path in MODULES if declared_all(path) is not None]


def test_some_modules_declare_all():
    assert len(EXPORTING) >= 5


@pytest.mark.parametrize("path", EXPORTING, ids=module_name)
def test_every_name_in_all_exists(path):
    module = importlib.import_module(module_name(path))
    assert [name for name in declared_all(path) if not hasattr(module, name)] == []


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node


def _referenced_names(node: ast.AST, imports: bool = True) -> list[str]:
    """Every name node mentions: loads and stores, attributes and, if asked, imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias) and imports:
            out.append(sub.name.split(".")[-1])
    return out


def test_every_private_name_is_used_by_the_package():
    # code that only its tests call piles up unseen; tests do not count here
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    everywhere = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    unused = [f"{module_name(path)}.{name}"
              for path, tree in trees.items() for name, node in _definitions(tree)
              if name.startswith("_") and not name.endswith("__")
              and everywhere[name] == Counter(_referenced_names(node))[name]]
    assert unused == []


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # a public name must be read somewhere besides its own definition, in the
    # package or in perfbench/; imports, __all__ strings and tests do not count
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    readers = [*trees.values(), *(ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH)]
    everywhere = Counter(name for tree in readers for name in _referenced_names(tree, imports=False))
    unused = [f"{module_name(path)}.{name}"
              for path, tree in trees.items() for name, node in _definitions(tree)
              if not name.startswith("_")
              and everywhere[name] == Counter(_referenced_names(node, imports=False))[name]]
    assert unused == []


# the defaulted parameters that no call in the package or the benchmark passes, each with its reason
UNPASSED_DEFAULTS = {
    "partmotion.cli.main(argv)": "the tests drive the CLI through it; the console script leaves it to sys.argv",
    "partmotion.diffcore.reduce_sum(axis)": "reduce_mean shares _reduce's axis, so dropping it would remove no code",
}


def _defaulted_parameters(tree: ast.Module):
    """(called name, parameter, position) of each parameter with a default, of
    every function in tree; a keyword-only one has no position. A method is
    called with its instance bound, and an `__init__` by its class's name."""
    for scope in ast.walk(tree):
        for fn in ast.iter_child_nodes(scope):
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            method = isinstance(scope, ast.ClassDef) and not static
            name = scope.name if fn.name == "__init__" else fn.name
            positional = [*fn.args.posonlyargs, *fn.args.args]
            for index in range(len(positional) - len(fn.args.defaults), len(positional)):
                yield name, positional[index].arg, index - method
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _passes(call: ast.Call, parameter: str, position) -> bool:
    """Whether call passes the parameter, by name or by position; a splat may pass anything."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_defaulted_parameter_check_reads_each_form():
    source = ("def f(a, b=1, *, c=2): pass\n"
              "class K:\n    def __init__(self, x=0): pass\n    def m(self, y=1): pass\n"
              "    @staticmethod\n    def s(z=1): pass\n")
    assert list(_defaulted_parameters(ast.parse(source))) == [
        ("f", "b", 1), ("f", "c", None), ("K", "x", 0), ("m", "y", 0), ("s", "z", 0)]
    call = ast.parse("f(1, 2, **rest)").body[0].value
    assert _passes(call, "b", 1) and _passes(call, "c", None)
    call = ast.parse("f(1, c=3)").body[0].value
    assert not _passes(call, "b", 1) and _passes(call, "c", None)


def test_every_defaulted_parameter_is_passed_by_the_package_or_the_benchmark():
    # a default that every caller takes is a constant with extra code. Calls
    # match functions by name; tests do not count. The allowances must still
    # be unpassed defaults, so a stale one cannot hide the next
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    readers = [*trees.values(), *(ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH)]
    calls = [node for tree in readers for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unpassed = [f"{module_name(path)}.{name}({parameter})"
                for path, tree in trees.items() for name, parameter, position in _defaulted_parameters(tree)
                if not any(_callee(call) == name and _passes(call, parameter, position) for call in calls)]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


_LINEAR_CALLS = {"linear", "_linear", "relu_linear", "matmul"}


def _callee(node: ast.AST):
    """The called name of a call node (`f` of `f(...)` or `m.f(...)`), else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def _relus_over_linear_layers(tree: ast.AST) -> list[int]:
    """Lines where relu takes a linear layer's output: the call itself, an
    add over a matmul, or a name that the same function assigned from one."""

    def is_layer(node: ast.AST) -> bool:
        return _callee(node) in _LINEAR_CALLS or (
            _callee(node) == "add" and any(_callee(arg) == "matmul" for arg in node.args))

    lines = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        layers = {target.id for node in ast.walk(scope) if isinstance(node, ast.Assign) and is_layer(node.value)
                  for target in node.targets if isinstance(target, ast.Name)}
        lines += [node.lineno for node in ast.walk(scope) if _callee(node) == "relu" and node.args
                  and (is_layer(node.args[0]) or getattr(node.args[0], "id", None) in layers)]
    return sorted(set(lines))


def test_relu_over_linear_check_finds_each_form():
    source = ("h = dc.relu(_linear(p, 'a', x))\n"
              "g = dc.relu(dc.add(dc.matmul(x, w), b))\n"
              "def f(x):\n    y = dc.linear(x, w, b)\n    return dc.relu(y)\n"
              "ok = dc.relu(dc.sub(1.0, d))\n")
    assert _relus_over_linear_layers(ast.parse(source)) == [1, 2, 5]


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_no_linear_layer_is_wrapped_in_a_separate_relu(path):
    # a relu'd layer is one dc.relu_linear node, its relu in place; dc.relu is
    # left for inputs that no linear layer makes, such as a hinge
    assert _relus_over_linear_layers(ast.parse(path.read_text(), filename=str(path))) == []


def _products_with_own_transpose(tree: ast.AST) -> list[int]:
    """Lines of each `x @ x.T` or `x.T @ x`, whatever expression x is."""

    def transposed(node: ast.AST, other: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "T" and ast.dump(node.value) == ast.dump(other)

    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                   and (transposed(node.right, node.left) or transposed(node.left, node.right))})


def test_own_transpose_check_finds_each_form():
    source = ("g = f @ f.T\n"
              "h = a.value.T @ a.value\n"
              "ok = f @ w.T + w.T @ f + f.T @ g\n")
    assert _products_with_own_transpose(ast.parse(source)) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_no_array_is_multiplied_by_its_own_transpose(path):
    # numpy sends such a product to BLAS's SYRK, whose rounding changes with
    # the thread count; scipy's pdist gives the distances they are taken for
    assert _products_with_own_transpose(ast.parse(path.read_text(), filename=str(path))) == []


def _maxima_of_a_literal(tree: ast.AST) -> list[int]:
    """Lines of each `maximum` or `fmax` call with a numeric literal (or its negation) as an operand."""

    def literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    return sorted({node.lineno for node in ast.walk(tree)
                   if _callee(node) in ("maximum", "fmax") and any(map(literal, node.args[:2]))})


def test_literal_maximum_check_finds_each_form():
    source = ("a = np.maximum(x, 0.0)\n"
              "np.maximum(out, 0, out=out)\n"
              "c = np.fmax(-1e-12, x)\n"
              "ok = np.maximum(x, _EPS) + np.maximum(x, zeros) + np.minimum(x, 0.0) + max(x, 0.0)\n")
    assert _maxima_of_a_literal(ast.parse(source)) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_no_maximum_takes_a_numeric_literal(path):
    # numpy runs `maximum` of an array and a scalar in an unvectorized loop,
    # more than twice as slow as against an array of zeros (diffcore._relu)
    assert _maxima_of_a_literal(ast.parse(path.read_text(), filename=str(path))) == []


def test_package_pins_blas_threads_before_its_first_relative_import():
    # BLAS reads its thread count once, when numpy loads it, and any of the
    # package's modules loads numpy: an import sorter must not hoist one above the pin
    body = ast.parse((SRC / "partmotion" / "__init__.py").read_text()).body
    first = next(i for i, node in enumerate(body) if isinstance(node, ast.ImportFrom) and node.level)
    before = [sub for node in body[:first] for sub in ast.walk(node)]
    assert "setdefault" in [_callee(sub) for sub in before]
    assert {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} <= {
        sub.value for sub in before if isinstance(sub, ast.Constant)}
    assert not {"numpy", "scipy"} & {alias.name.split(".")[0] for sub in before
                                     if isinstance(sub, ast.Import) for alias in sub.names}


def _oracle_readers(tree: ast.AST) -> set[str]:
    """The names a test file takes from oracles: `oracles.name` and `from oracles import name`."""
    names = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "oracles":
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and sub.module == "oracles":
            names |= {alias.name for alias in sub.names}
    return names


def test_every_oracle_is_read_by_a_test_or_another_oracle():
    # a reference that nothing compares against any more is dead weight;
    # `dc.Adam` in a test does not keep an `oracles.Adam` alive
    tests = SRC.parent / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text())
    read = set().union(*(_oracle_readers(ast.parse(path.read_text(), filename=str(path)))
                         for path in tests.glob("*.py") if path.name != "oracles.py"))
    mentions = Counter(sub.id for sub in ast.walk(oracles) if isinstance(sub, ast.Name))
    stale = [name for name, node in _definitions(oracles) if name not in read
             and mentions[name] == sum(isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node))]
    assert stale == []
