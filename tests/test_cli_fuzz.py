"""Property tests of the command line over malformed input.

Every run of `certify`, `witness apply` and `twirl` exits 0, 1 or 2.  A
failing run prints exactly one line on stderr: no traceback and no numpy
warning.  A successful run prints no non-finite number.  Sizes stay small
(d <= 4) so the whole module runs in seconds; entries reach
+-1e308, so overflow is in range.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from covwit import serialize
from covwit.cli import main

HUGE = 1e308
S3_KEYS = ("a_e", "a_12", "a_13", "a_23", "re_123", "im_123")
HH_KEYS = ("a", "b", "c")

number = st.one_of(st.floats(-HUGE, HUGE), st.integers(-3, 3),
                   st.sampled_from([HUGE, -HUGE, 0.5, 1 / 27]))
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(), max_size=2))
value = st.one_of(number, number, number, junk)
dim = st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(-1, 0),
                junk)
token = st.one_of(number.map(repr), st.sampled_from(
    ["nan", "inf", "-inf", "1/0", "x", "", "1/3", "-2/7", "1e400",
     "9" * 400 + "/1"]))
int_token = st.one_of(st.integers(-1, 4).map(str), token)


def run_cli(argv):
    """(exit code, stdout, stderr, warning messages) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message)
                                                   for w in caught]


def check_run(argv):
    code, out, err, caught = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert not caught, (argv, caught)
    if code == 0:
        assert "nan" not in out and "inf" not in out, (argv, out)
    else:
        assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)
    return code, err


@st.composite
def matrix_obj(draw, n):
    """Matrix JSON of size n x n from a seeded draw at a drawn scale, now
    and then malformed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e154, HUGE]))
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if draw(st.booleans()):
        z = z + z.conj().T
    obj = serialize.matrix_to_obj(np.clip(z.real, -1, 1) * scale
                                  + 1j * np.clip(z.imag, -1, 1) * scale)
    bad = draw(st.sampled_from(["none"] * 6 + ["rows", "data", "entry"]))
    if bad == "rows":
        obj["rows"] = draw(dim)
    elif bad == "data":
        obj["data"] = obj["data"][:-1]
    elif bad == "entry":
        obj["data"][0] = [draw(value), draw(value)]
    return obj


@st.composite
def map_obj(draw):
    """(map JSON, its input dimension): a structured family or a Choi
    matrix, with keys dropped and values replaced now and then."""
    kind = draw(st.sampled_from(["hh", "werner3-L", "quo-M", "choi",
                                 "junk"]))
    if kind == "junk":
        return draw(st.one_of(junk, st.dictionaries(
            st.sampled_from(["family", "d", "coeffs", "d_in"]), value,
            max_size=3))), 2
    d = draw(st.integers(1, 4))
    if kind == "choi":
        d_out = draw(st.integers(1, 4))
        return {"d_in": draw(st.one_of(st.just(d), dim)), "d_out": d_out,
                "choi_unnormalized": draw(matrix_obj(d * d_out))}, d
    keys = HH_KEYS if kind == "hh" else S3_KEYS
    coeffs = {k: draw(st.one_of(number, number, number, value))
              for k in keys if draw(st.integers(0, 20))}
    return {"family": kind, "d": draw(st.one_of(st.just(d), dim)),
            "coeffs": coeffs}, d


@settings(max_examples=150)
@given(family=st.sampled_from(["hh", "werner3", "quo"]), d=int_token,
       values=st.lists(token, min_size=3, max_size=7))
def test_certify_argv(family, d, values):
    argv = ["certify", family, "--d", d]
    if family == "hh":
        argv += ["--a", values[0], "--b", values[1], "--c", values[2]]
    else:
        argv += ["--coeffs", ",".join(values)]
    check_run(argv)


@settings(max_examples=100)
@given(d=st.integers(2, 4), v=st.tuples(*[st.floats(-HUGE, HUGE)] * 5),
       family=st.sampled_from(["werner3", "quo"]))
def test_certify_normalized_large_coefficients(d, v, family):
    """Tuples scaled to trace 1 reach the closed forms whatever their size."""
    tr = d**3 + d**2 * (v[0] + v[1] + v[2]) + 2 * d * v[3]
    coeffs = (1.0,) + v
    if np.isfinite(tr) and tr != 0:
        coeffs = tuple(x / tr for x in coeffs)
    check_run(["certify", family, "--d", str(d),
               "--coeffs=" + ",".join(repr(float(x)) for x in coeffs)])


@settings(max_examples=150)
@given(m=map_obj(), k=st.integers(1, 3), data=st.data(),
       adjoint=st.booleans())
def test_witness_apply_files(m, k, data, adjoint):
    obj, d_in = m
    if adjoint and isinstance(obj, dict):
        d_in = obj.get("d_out", d_in * d_in)
    with tempfile.TemporaryDirectory() as tmp:
        wit, state = Path(tmp) / "w.json", Path(tmp) / "s.json"
        serialize.dump_json(obj, wit)
        serialize.dump_json(data.draw(matrix_obj(k * d_in)), state)
        argv = ["witness", "apply", "--witness", str(wit), "--state",
                str(state), "--out", str(Path(tmp) / "o.json")]
        check_run(argv + (["--adjoint"] if adjoint else []))


@settings(max_examples=60)
@given(family=st.sampled_from(["hh", "uuu", "uubaru", "oo"]),
       n=st.sampled_from([4, 5, 8, 9, 16, 27]), data=st.data())
def test_twirl_files(family, n, data):
    with tempfile.TemporaryDirectory() as tmp:
        mfile = Path(tmp) / "m.json"
        serialize.dump_json(data.draw(matrix_obj(n)), mfile)
        check_run(["twirl", "--family", family, "--matrix-file", str(mfile),
                   "--out", str(Path(tmp) / "o.json")])


@settings(max_examples=30)
@given(family=st.sampled_from(["hh", "werner3-L", "quo-M"]), data=st.data())
def test_missing_coefficient_names_file_and_key(family, data):
    keys = HH_KEYS if family == "hh" else S3_KEYS[:5]
    gone = data.draw(st.sampled_from(keys))
    coeffs = {k: 0.1 for k in keys if k != gone}
    with tempfile.TemporaryDirectory() as tmp:
        wit, state = Path(tmp) / "w.json", Path(tmp) / "s.json"
        serialize.dump_json({"family": family, "d": 3, "coeffs": coeffs}, wit)
        serialize.write_matrix(np.eye(9) / 9, state)
        code, err = check_run(["witness", "apply", "--witness", str(wit),
                               "--state", str(state)])
    assert code == 1
    assert str(wit) in err and repr(gone) in err, err


def test_spectrum_past_the_float_range_is_a_numerical_failure():
    """A finite image whose eigenvalue exceeds the float range (2e308)."""
    with tempfile.TemporaryDirectory() as tmp:
        wit, state = Path(tmp) / "w.json", Path(tmp) / "s.json"
        serialize.dump_json({"d_in": 1, "d_out": 1, "choi_unnormalized": {
            "rows": 1, "cols": 1, "data": [[1, 0]]}}, wit)
        serialize.write_matrix(np.full((2, 2), HUGE), state)
        code, err = check_run(["witness", "apply", "--witness", str(wit),
                               "--state", str(state)])
    assert code == 2 and err.startswith("numerical failure"), err
