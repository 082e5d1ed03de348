"""Package layout: what ``import netwitness`` loads, no caller-less public code, and
every name the benchmark calls."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "netwitness"


def test_import_loads_the_core_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, netwitness\n"
            "print(sorted(m for m in sys.modules if m.startswith('netwitness.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert {f"netwitness.{m}" for m in
            ("tensor", "witnesses", "networks", "protocol", "states")} <= loaded


MODULES = {p.stem for p in PACKAGE.glob("*.py")} | {"netwitness"}


def _walk(tree, skip=None):
    """The nodes of ``tree`` outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _names(tree, skip=None) -> set:
    """Every name that ``tree`` reads, imports, or takes as an attribute of a
    netwitness module (``protocol.detect_exact``), outside ``skip``; a store or an
    attribute of any other object (``rep.singlet_fraction``) is no caller."""
    out = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _attribute_reads(tree, skip=None) -> set:
    """Every attribute name that ``tree`` reads (``rep.to_dict``), outside ``skip``:
    the callers of a public method or property."""
    return {node.attr for node in _walk(tree, skip)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _public_definitions(node) -> list:
    """The public names a module-level statement defines: a function, a class,
    or the plain names an assignment binds (``TOL = 1e-9``)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_definition_has_a_caller():
    # a caller is code in src/ (outside the definition itself and __init__.py),
    # perfbench/ or scripts/; tests alone do not keep library code alive. A
    # public method or property of a class is called by any attribute read of
    # its name.
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"}
    outside, outside_reads = set(), set()
    for p in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(p.read_text())
        outside |= _names(tree)
        outside_reads |= _attribute_reads(tree)
    unused = [
        f"{name}:{defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in _public_definitions(node)
        if defined not in outside
        and not any(defined in _names(t, node if n == name else None) for n, t in trees.items())
    ]
    unused += [
        f"{name}:{node.name}.{method.name}"
        for name, tree in trees.items()
        for node in tree.body if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and method.name not in outside_reads
        and not any(method.name in _attribute_reads(t, method) for t in trees.values())
    ]
    assert unused == []


def test_src_imports_only_the_stdlib_and_numpy():
    # pyproject.toml declares numpy as the one dependency outside the stdlib
    foreign = []
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{p.name}:{name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert foreign == []


def test_src_modules_read_every_name_they_import():
    # __init__.py imports its modules to load them, and ``from __future__
    # import annotations`` binds no name to read
    unused = []
    for p in sorted(PACKAGE.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{p.name}:{name}" for name in bound if name not in read]
    assert unused == []


def _benchmark_bindings(tree) -> dict:
    """Local name -> object for every ``from netwitness... import`` in ``tree``,
    imports inside functions included; a name the package lacks maps to None."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "netwitness":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(module, alias.name, None)
                bound[alias.asname or alias.name] = obj
    return bound


def test_benchmark_calls_only_names_that_exist():
    # perfbench/ is read here, never changed: a src/ change that deletes or
    # renames a name it imports or reads off a netwitness module would break
    # the benchmark and no other test
    missing = []
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(p.read_text())
        bound = _benchmark_bindings(tree)
        missing += [f"{p.name}:{name}" for name, obj in bound.items() if obj is None]
        missing += [
            f"{p.name}:{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and bound.get(node.value.id) is not None
            and not hasattr(bound[node.value.id], node.attr)
        ]
    assert missing == []


def test_benchmark_reads_the_falsifier_defaults():
    # perfbench/stages.py reads these two defaults through inspect
    from netwitness.witnesses import bell_diagonal_witness
    params = inspect.signature(bell_diagonal_witness).parameters
    for name in ("check_trials", "check_seed"):
        assert params[name].default is not inspect.Parameter.empty
