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
