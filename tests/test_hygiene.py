"""Every module under src/covwit, tests and demos uses each name it
imports, the closed-form modules import no numpy, and the CLI leaves the
oracles to selftest."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/covwit", "tests", "demos")


def unused_imports(path):
    """Names bound by an import in path and never read there; a name
    listed in __all__ counts as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [(line, name) for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for d in DIRS for path in sorted((ROOT / d).rglob("*.py"))
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


# Modules whose decisions are closed forms on plain numbers.
NUMPY_FREE = ("s3", "werner3", "quo", "certificate")


def test_closed_form_modules_import_no_numpy():
    found = []
    for name in NUMPY_FREE:
        path = ROOT / "src/covwit" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{name}.py:{node.lineno}: {m}" for m in mods
                      if m.split(".")[0] == "numpy"]
    assert not found, "numpy imports:\n" + "\n".join(found)


def test_cli_imports_oracle_only_for_selftest():
    code = "import sys, covwit.cli; print('covwit.oracle' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
