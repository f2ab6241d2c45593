"""Every module under src/covwit, tests and demos uses each name it
imports, the closed-form modules import no numpy, the CLI loads only the
modules a command uses, and no module-level dict grows with the states a
decision sees."""

import ast
import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

from covwit import quo, s3, werner3

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


CERTIFY = {"hh": ["--a", "1", "--b", "1/3", "--c", "1/3"],
           "werner3": ["--coeffs", "1/27,0,0,0,0,0"],
           "quo": ["--coeffs", "1/27,0,0,0,0,0"]}
LOADED = {None: {"cli", "linalg"},  # a bare `import covwit.cli`
          "hh": {"cli", "linalg", "certificate", "choi", "hh"},
          "werner3": {"cli", "linalg", "certificate", "choi", "s3", "twirl",
                      "werner3"},
          "quo": {"cli", "linalg", "certificate", "choi", "s3", "twirl",
                  "quo"}}


@pytest.mark.parametrize("family", list(LOADED))
def test_cli_loads_only_the_modules_a_command_uses(family):
    """A cold `certify F` imports F's modules and no other family's."""
    argv = ["certify", family, "--d", "3"] + CERTIFY[family] if family else []
    code = ("import json, sys, covwit.cli\n"
            f"if {argv!r}: covwit.cli.main({argv!r})\n"
            "print(json.dumps([sorted(sys.modules), 'numpy' in sys.modules]),"
            " file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    err = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stderr
    mods, numpy = json.loads(err)
    assert {m[7:] for m in mods if m.startswith("covwit.")} == LOADED[family]
    # numpy stays loaded: main's np.errstate needs it, and perfbench's
    # import_times reads numpy's time from `import covwit.cli` until the
    # harness changes (ROADMAP item 1).
    assert numpy


def module_dicts():
    """Every module-level dict and set of every covwit module, by name."""
    import covwit

    out = {}
    for info in pkgutil.iter_modules(covwit.__path__):
        mod = importlib.import_module(f"covwit.{info.name}")
        out.update((f"{info.name}.{name}", v) for name, v in vars(mod).items()
                   if isinstance(v, (dict, set)) and not name.startswith("__"))
    return out


def states(cls, d, n):
    """n distinct invariant states: a_e dominating small random others,
    normalized to trace 1."""
    rng = random.Random(d)
    for _ in range(n):
        v = [rng.uniform(-1.0, 1.0) for _ in range(5)]
        f = 0.5 / (d * (sum(map(abs, v[:3])) + 2 * math.hypot(*v[3:])))
        c = cls(d, 1.0, *(f * x for x in v[:3]), f * complex(*v[3:]))
        yield c.scale_by(1.0 / c.trace())


def flat(key):
    if isinstance(key, (tuple, frozenset)):
        for k in key:
            yield from flat(k)
    else:
        yield key


@pytest.mark.parametrize("family", ["werner3", "quo"])
def test_no_module_dict_grows_with_the_states_swept(family):
    """200 distinct states at one (d, grid) leave every module-level dict
    of covwit as long as one state does, and no key holds a coefficient."""
    cls, decide = ((werner3.S3Coeffs, werner3.detect_entanglement_w3)
                   if family == "werner3" else
                   (quo.QuoCoeffs, quo.decide_quo))
    seen = list(states(cls, 3, 200))
    assert len({c.as_tuple6() for c in seen}) == 200
    decide(seen[0], grid=8)
    dicts = module_dicts()
    assert {"s3._CHECKED", "s3._GRIDS"} <= set(dicts)
    after_one = {name: len(v) for name, v in dicts.items()}
    for c in seen[1:]:
        decide(c, grid=8)
    assert {name: len(v) for name, v in dicts.items()} == after_one
    coeffs = {x for c in seen for x in c.as_tuple6() + (c.a_123,) if x}
    held = [(name, k) for name, v in dicts.items() for k in v
            if any(isinstance(x, s3.Coeffs)
                   or isinstance(x, (float, complex)) and x in coeffs
                   for x in flat(k))]
    assert not held, held
