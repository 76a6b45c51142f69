"""Every package name the benchmark harness under ``perfbench/`` uses still exists.

The harness is read, never run, here: its files are parsed with ``ast``,
so the lazy imports inside functions that no other test calls are
checked too, and so is every ``(owner, "name")`` pair that
``perfbench.tracer.install`` patches.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports():
    """(file, line, module, name) for every ``from vandalstack… import name``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.module or "").split(".")[0] == "vandalstack":
                found += [(path.name, node.lineno, node.module, a.name) for a in node.names]
    return found


def resolve(module, name):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule not yet imported


def install_patches():
    """(line, owner, owners, name) for every name ``tracer.install`` patches.

    ``owner`` is the first argument's local name, and ``owners`` the objects
    it stands for: an imported module, or each value of a dict the call's
    loop runs over.
    """
    install = next(
        node for node in parsed(PERFBENCH / "tracer.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    bound = {}  # local name -> the objects it stands for
    patchers = set()  # local names bound to `<tracer>.patch`
    for node in ast.walk(install):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = [resolve(node.module, alias.name)]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "patch":
                patchers.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Call):
            # for cls in DICT.values():
            func = node.iter.func
            if isinstance(func, ast.Attribute) and func.attr == "values":
                (table,) = bound[func.value.id]
                bound[node.target.id] = list(table.values())
    patches = []
    for node in ast.walk(install):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in patchers
        ):
            owner, name = node.args[:2]
            patches.append((node.lineno, owner.id, bound[owner.id], name.value))
    return patches


IMPORTS = package_imports()
PATCHES = install_patches()


def test_the_harness_is_found():
    modules = {(file, module) for file, _, module, _ in IMPORTS}
    # the lazy imports inside workloads._second_stage_aucs and ablation.ablate
    assert ("workloads.py", "vandalstack.stacking") in modules
    assert ("ablation.py", "vandalstack.stacking") in modules
    assert len(PATCHES) >= 20


@pytest.mark.parametrize(
    "file, line, module, name", IMPORTS, ids=[f"{f}:{m}.{x}" for f, _, m, x in IMPORTS]
)
def test_every_imported_name_resolves(file, line, module, name):
    try:
        resolve(module, name)
    except ImportError:
        pytest.fail(f"perfbench/{file}:{line} imports {module}.{name}, which does not exist")


@pytest.mark.parametrize(
    "line, owner, owners, name", PATCHES, ids=[f"{o}.{x}" for _, o, _, x in PATCHES]
)
def test_every_patched_name_resolves(line, owner, owners, name):
    for each in owners:
        assert callable(getattr(each, name, None)), (
            f"perfbench/tracer.py:{line} patches {each.__name__}.{name}, which does not exist"
        )
