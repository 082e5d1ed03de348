"""Package layout: what ``import netwitness`` loads, and no caller-less public code."""

import ast
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


def _names(tree, skip=None) -> set:
    """Every name that ``tree`` reads, imports, or takes as an attribute of a
    netwitness module (``protocol.detect_exact``), outside ``skip``; a store or an
    attribute of any other object (``rep.singlet_fraction``) is no caller."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


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
    # perfbench/ or scripts/; tests alone do not keep library code alive
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"}
    outside = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        outside |= _names(ast.parse(p.read_text()))
    unused = [
        f"{name}:{defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in _public_definitions(node)
        if defined not in outside
        and not any(defined in _names(t, node if n == name else None) for n, t in trees.items())
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
