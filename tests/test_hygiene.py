"""Every module under src/covwit, tests and demos uses each name it
imports, the closed-form modules import no numpy, the only tolerances are
linalg's PSD_TOL and EQ_TOL, the CLI loads only the modules a command
uses, no module-level dict or functools cache grows with the states a
decision sees, and every covwit name the benchmark under perfbench/ reads
exists."""

import ast
import gc
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

from covwit import hh, quo, s3, werner3

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


def test_the_only_tolerances_are_psd_tol_and_eq_tol():
    """No module of src/covwit binds a *_TOL name at module level but
    linalg's two boundary-rule constants."""
    found = set()
    for path in sorted((ROOT / "src/covwit").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found |= {f"{path.stem}.{n.id}" for t in targets
                      for n in ast.walk(t)
                      if isinstance(n, ast.Name) and n.id.endswith("_TOL")}
    assert found == {"linalg.PSD_TOL", "linalg.EQ_TOL"}


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
    """Every module-level dict and set of every covwit module, by name, and
    the cache dict of every functools cache (its keys are the arguments)."""
    import covwit

    out = {}
    for info in pkgutil.iter_modules(covwit.__path__):
        mod = importlib.import_module(f"covwit.{info.name}")
        for name, v in vars(mod).items():
            if isinstance(v, (dict, set)) and not name.startswith("__"):
                out[f"{info.name}.{name}"] = v
            elif hasattr(v, "cache_info"):
                out[f"{info.name}.{name}()"] = lru_cache_dict(v)
    return out


def lru_cache_dict(f):
    """The dict a functools cache keeps its entries in, found among the
    objects it refers to; its length is cache_info().currsize."""
    found = [r for r in gc.get_referents(f)
             if isinstance(r, dict) and r is not f.__dict__]
    assert len(found) == 1, f
    return found[0]


def states(cls, d, n):
    """n distinct invariant states: a_e dominating small random others,
    normalized to trace 1."""
    rng = random.Random(d)
    for _ in range(n):
        v = [rng.uniform(-1.0, 1.0) for _ in range(5)]
        f = 0.5 / (d * (sum(map(abs, v[:3])) + 2 * math.hypot(*v[3:])))
        c = cls(d, 1.0, *(f * x for x in v[:3]), f * complex(*v[3:]))
        yield c.scale_by(1.0 / c.trace())


def channels(d, n):
    """n distinct hh channels: random convex mixtures of the four extremal
    channels."""
    rng = random.Random(d)
    vs = hh.extremals(d).cp_vertices
    for _ in range(n):
        w = [rng.random() for _ in vs]
        yield hh.HHCoeffs(d, *(sum(x * getattr(v, k) for x, v in zip(w, vs))
                               / sum(w) for k in "abc"))


def flat(key):
    if isinstance(key, (tuple, frozenset)):
        for k in key:
            yield from flat(k)
    else:
        yield key


def swept(family):
    """200 distinct inputs at d = 3 (hh: channels) and the decision that
    takes them, at grid 8 for the S3 families."""
    if family == "hh":
        return list(channels(3, 200)), hh.decide
    cls, decide = ((werner3.S3Coeffs, werner3.detect_entanglement_w3)
                   if family == "werner3" else
                   (quo.QuoCoeffs, quo.decide_quo))
    return list(states(cls, 3, 200)), lambda c: decide(c, grid=8)


def numbers(c):
    return ((c.a, c.b, c.c) if isinstance(c, hh.HHCoeffs)
            else c.as_tuple6() + (c.a_123,))


@pytest.mark.parametrize("family", ["werner3", "quo", "hh"])
def test_no_module_dict_grows_with_the_states_swept(family):
    """200 distinct states (hh: channels) at one d, and grid, leave every
    module-level dict and functools cache of covwit as long as one state
    does, and no key holds a coefficient."""
    seen, decide = swept(family)
    assert len({numbers(c) for c in seen}) == 200
    decide(seen[0])
    dicts = module_dicts()
    assert {"s3._CHECKED", "s3._GRIDS", "hh._extremals()"} <= set(dicts)
    after_one = {name: len(v) for name, v in dicts.items()}
    for c in seen[1:]:
        decide(c)
    assert {name: len(v) for name, v in dicts.items()} == after_one
    coeffs = {x for c in seen for x in numbers(c) if x}
    held = [(name, k) for name, v in dicts.items() for k in v
            if any(isinstance(x, (s3.Coeffs, hh.HHCoeffs))
                   or isinstance(x, (float, complex)) and x in coeffs
                   for x in flat(k))]
    assert not held, held


def resolve(dotted):
    """The object a dotted name names, or None; every covwit module is
    imported first, so `covwit.cli` is an attribute of covwit."""
    import covwit

    for info in pkgutil.iter_modules(covwit.__path__):
        importlib.import_module(f"covwit.{info.name}")
    head, *rest = dotted.split(".")
    obj = importlib.import_module(head)
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def test_every_benchmark_span_target_resolves():
    """perfbench/spans.py patches each (owner, attribute) of TARGETS; a
    target deleted from covwit would otherwise fail only the benchmark's
    own tests."""
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench/spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{owner}.{attr}" for owner, attr, _ in spans.TARGETS
               if resolve(f"{owner.replace(':', '.')}.{attr}") is None]
    assert not missing, missing


def covwit_reads(path):
    """Dotted covwit names that path reads: each name it imports from a
    covwit module, and each attribute chain it reads off a covwit name it
    imports (`werner3.rho_t`, `covwit.cli.main`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "covwit"):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = name
                reads.add(name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "covwit":
                    bound[alias.asname or "covwit"] = (
                        alias.name if alias.asname else "covwit")
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id]] + chain[::-1]))
    return reads


def test_every_covwit_name_the_benchmark_reads_exists():
    reads = {name: path.name
             for path in sorted((ROOT / "perfbench").glob("*.py"))
             for name in covwit_reads(path)}
    assert {"covwit.cli.main", "covwit.hh.HHCoeffs", "covwit.werner3.rho_t",
            "covwit.werner3.build_V",
            "covwit.linalg.partial_transpose"} <= set(reads)
    missing = [f"{path}: {name}" for name, path in sorted(reads.items())
               if resolve(name) is None]
    assert not missing, missing
