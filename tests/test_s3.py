"""The shared S3 core: the closed-form witness sweep and block spectra
against the dense matrices they replaced, decisions without them, and the
coefficient format fixed at construction, and the integer rule at every
constructor that takes a dimension or a grid."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwit import hh, linalg, quo, s3, serialize, twirl, werner3
from covwit.certificate import Certificate
from covwit.choi import LinMap
from covwit.linalg import ContractError, DimensionError, partial_transpose
from covwit.s3 import PERMS

# family -> (module, coefficient class, witness basis maps, catalogue)
FAMILIES = {
    "werner3": (werner3, werner3.S3Coeffs, werner3.build_L,
                werner3._witness_coeff_grid),
    "quo": (quo, quo.QuoCoeffs, quo.build_M, quo._witness_rows),
}
CASES = [("werner3", d) for d in (3, 4, 5)] + [("quo", d) for d in (2, 3, 4)]

unit = st.floats(-1.0, 1.0, allow_nan=False)
six = st.tuples(*[unit] * 6)


def dense_minima(mod, build_one, c, ws):
    """Smallest eigenvalue of sum_sigma w_sigma (id (x) X_sigma*)(rho) for
    every coefficient vector w (ordered as PERMS), from the dense images;
    also returns ||rho||_F."""
    rho = mod.invariant_matrix(c)
    ks = np.array([build_one(s, c.d).adjoint().id_tensor(rho, c.d)
                   for s in PERMS])
    outs = np.tensordot(np.array(ws), ks, axes=([1], [0]))
    outs = (outs + np.conj(np.swapaxes(outs, 1, 2))) / 2
    return np.linalg.eigvalsh(outs)[:, 0], float(np.linalg.norm(rho))


def as_state(cls, d, v, shrink):
    """a_e = 1 dominating the other coefficients (so the operator is PSD),
    normalized to trace 1.  ||V_sigma|| = 1, but ||T_sigma|| is up to d."""
    rest = np.abs(v[1:4]).sum() + 2 * abs(complex(v[4], v[5]))
    if cls is quo.QuoCoeffs:
        rest *= d
    f = shrink / max(rest, 1e-12)
    c = cls.from_tuple6(d, (1.0,) + tuple(f * x for x in v[1:]))
    return c.scale_by(1.0 / c.trace())


@settings(max_examples=60)
@given(case=st.sampled_from(CASES), v=six, state=st.booleans(),
       shrink=st.floats(0.0, 1.0), extra=st.lists(six, min_size=1,
                                                   max_size=4))
def test_witness_sweep_matches_dense_images(case, v, state, shrink, extra):
    family, d = case
    mod, cls, build_one, catalogue = FAMILIES[family]
    c = as_state(cls, d, v, shrink) if state else cls.from_tuple6(d, v)
    if state:
        s3.state_check(c)
    rows = catalogue(d, 4) + [("random", w) for w in extra]
    mins = [m for _, m in s3.witness_minima(c, rows)]
    ws = [cls.from_tuple6(d, t).vector() for _, t in rows]
    want, norm = dense_minima(mod, build_one, c, ws)
    assert len(mins) == len(rows)
    for w, got, ref in zip(ws, mins, want):
        assert abs(got - ref) <= 1e-12 * max(1.0, norm * np.linalg.norm(w))
    cert = Certificate(family, d, {})
    first, worst, _ = s3.witness_sweep(cert, c, iter(rows))
    evidence = cert.checks["witness_sweep"]["evidence"]
    assert evidence["count"] == len(rows)
    assert first == {"id": rows[0][0], "min_eig": mins[0]}
    assert worst["min_eig"] == evidence["min_eig"] == min(mins)


def _sweep(c, rows):
    cert = Certificate(type(c).__name__, c.d, {})
    return s3.witness_sweep(cert, c, rows)


def test_witness_sweep_reports_the_first_of_tied_rows():
    """Rows with equal minima: the first one listed is the worst witness,
    and is the first witness itself when the first row is least."""
    c = werner3.rho_t_coeffs(3, 1.0)
    lo = werner3.witness_L0(3).as_tuple6()
    hi = werner3.extremal_w3("I", d=3).as_tuple6()
    (_, m_lo), (_, m_hi) = s3.witness_minima(c, [("lo", lo), ("hi", hi)])
    assert m_lo < m_hi
    rows = [("a", hi), ("b", lo), ("c", lo), ("d", hi), ("e", lo)]
    first, worst, _ = _sweep(c, rows)
    assert first == {"id": "a", "min_eig": m_hi}
    assert worst == {"id": "b", "min_eig": m_lo}
    first, worst, _ = _sweep(c, iter([("x", lo)] + rows))
    assert worst is first and first == {"id": "x", "min_eig": m_lo}


def test_werner3_witnesses_are_L0_and_the_first_worst_row():
    """The certificate names L0 alone when L0 is least (rho_t), else L0
    and the first row of least minimum (the maximally mixed state, whose
    minimum twelve grid-4 rows share), as a list of the rows finds it.  The
    sweep takes one row more than the list: the exact Type III row, which
    depends on the state and follows the catalogue."""
    cert = werner3.detect_entanglement_w3(werner3.rho_t_coeffs(3, 1.0),
                                          grid=4)
    assert [w["id"] for w in cert.witnesses] == ["L0"]
    c = werner3.S3Coeffs.from_tuple6(3, (1 / 27, 0, 0, 0, 0, 0))
    rows = werner3._witness_coeff_grid(3, 4)
    mins = [m for _, m in s3.witness_minima(c, rows)]
    i = mins.index(min(mins))
    assert i > 0 and mins.count(mins[i]) > 1
    cert = werner3.detect_entanglement_w3(c, grid=4)
    assert cert.witnesses == [{"id": "L0", "min_eig": mins[0]},
                              {"id": rows[i][0], "min_eig": mins[i]}]
    assert cert.checks["witness_sweep"]["evidence"]["count"] == len(rows) + 1
    assert not any(k.startswith("III") for k, _ in rows)


def test_catalogue_streams_its_rows():
    """s3.catalogue yields items one at a time, a grid point's conjugate
    pairs as one item; the listed forms perfbench reads are lists of (id,
    tuple6), one per row of the same stream."""
    items = s3.catalogue(quo.QuoCoeffs, 2, 4)
    A, B, C, pairs = next(items)
    assert (A, B, C) == (0.0, 1.0, 0.0)
    assert [t for t, _ in pairs] == ["I'", "II'"]
    key, t = next(s3.rows([(A, B, C, pairs)]))
    assert key == ("I'", 0.0, 1.0, 0.0, 1) and t == pairs[0][1]
    assert s3.witness_id(key) == "I'[0.0,1.0,0.0,+1]"
    assert quo._witness_rows(2, 4)[0] == (s3.witness_id(key), t)
    assert isinstance(werner3._witness_coeff_grid(3, 2), list)


# family -> (its public extremal function, its fixed types and the swept
# types on the grid at d); werner3's Type III, neither CP nor CCP, gets its
# exact row instead of grid rows
EXTREMALS = {
    "werner3": (werner3.extremal_w3, lambda d: (("I",), ("II",))),
    "quo": (quo.extremal_quo,
            lambda d: ((("I", "II"), ("III", "IV")) if d >= 3
                       else ((), ("I'", "II'")))),
}


@pytest.mark.parametrize("grid", [2, 3, 16])
@pytest.mark.parametrize("case", [("werner3", d) for d in (3, 4, 5)]
                         + [("quo", d) for d in (2, 3, 4, 5)])
def test_catalogue_rows_are_the_public_extremals(case, grid):
    """One path: every catalogue row is the as_tuple6() of the extremal
    the public extremal_* makes at that grid point, in order; extremal_*
    refuses no grid point and the catalogue skips none."""
    family, d = case
    extremal_fn, types = EXTREMALS[family]
    fixed, swept = types(d)
    want = ([("L0", werner3.witness_L0(d).as_tuple6())]
            if family == "werner3" else [])
    want += [(t, extremal_fn(t, d=d).as_tuple6()) for t in fixed]
    for A, B, C, sign in s3.grid_points(grid):
        for t in swept:
            want.append((f"{t}[{A!r},{B!r},{C!r},{sign:+d}]",
                         extremal_fn(t, A, B, C, sign, d).as_tuple6()))
    assert FAMILIES[family][3](d, grid) == want


@settings(max_examples=200)
@given(n=st.integers(2, 300), m=st.integers(2, 300), i=st.integers(0, 299),
       d=st.integers(3, 39))
def test_grid_points_are_np_linspace_bit_for_bit(n, m, i, d):
    """The catalogue's u range [-1, 1] and, at the i-th u of an m-point
    grid, its C range [-cmax, cmax]; and `sweep hh`'s a axis [0, d/(d-1)],
    whose CSV bytes were np.linspace's."""
    u = s3.linspace(-1.0, 1.0, m)[i % m]
    cmax = math.sqrt((1 + u) / 2 * ((1 - u) / 2))
    for lo, hi in ((-1.0, 1.0), (-cmax, cmax), (0.0, d / (d - 1))):
        got = np.array(s3.linspace(lo, hi, n))
        assert got.tobytes() == np.linspace(lo, hi, n).tobytes()


@settings(max_examples=150)
@given(case=st.sampled_from(CASES + [("quo", 5)]), v=six)
def test_block_spectra_match_dense_eigenvalues(case, v):
    """The whole spectrum of X and of each partial transpose, with
    multiplicities, read off s3.block(c, cut)."""
    family, d = case
    mod, cls = FAMILIES[family][:2]
    c = cls.from_tuple6(d, v)
    x = mod.invariant_matrix(c)
    band = 1e-12 * max(1.0, float(np.linalg.norm(x)))
    for k, cut in enumerate(("", "A", "B", "C")):
        m = partial_transpose(x, [d, d, d], k - 1) if cut else x
        b = s3.block(c, cut)
        m1, m2, mb = b.mult
        assert m1 + m2 + 2 * mb == d**3, (family, d, cut)
        pair = np.linalg.eigvalsh([[b.b00, b.b01], [np.conj(b.b01), b.b11]])
        got = np.sort(np.repeat([b.s1, b.s2, *pair], [m1, m2, mb, mb]))
        want = np.linalg.eigvalsh(m)
        assert np.abs(got - want).max() <= band, (family, d, cut)
        assert abs(b.min_margin() - want[0]) <= band, (family, d, cut)


def test_decisions_build_no_dense_matrix(monkeypatch):
    w3 = werner3.rho_t_coeffs(3, 1.0)
    monkeypatch.setattr(linalg, "MAX_DIM", 0)
    with pytest.raises(linalg.DimensionError):  # the cap is live
        werner3.invariant_matrix(w3)
    assert werner3.detect_entanglement_w3(w3, grid=4).verdict == "ENTANGLED"
    for d in (2, 3):
        c = quo.QuoCoeffs(d, 1.0 / d**3, 0, 0, 0, 0)
        assert quo.decide_quo(c, grid=4).verdict == "SEPARABLE"


def test_decisions_run_no_eigensolve(monkeypatch):
    """werner3 and quo read every spectrum off scalars and 2x2 blocks in
    closed form, so no decision reaches LAPACK."""
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve on a werner3/quo decision path")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    cert = werner3.detect_entanglement_w3(werner3.rho_t_coeffs(3, 1), grid=8)
    assert cert.verdict == "ENTANGLED"
    assert abs(cert.witnesses[0]["min_eig"] + (2 / 3) / 47) <= 1e-15
    for d in (2, 3):
        mixed = quo.QuoCoeffs(d, 1.0 / d**3, 0, 0, 0, 0)
        omega_ab = quo.QuoCoeffs(d, 0, 1.0 / d**2, 0, 0, 0)
        assert quo.decide_quo(mixed, grid=4).verdict == "SEPARABLE"
        assert quo.decide_quo(omega_ab, grid=4).verdict == "ENTANGLED"


NUMBER_TYPES = {"float32": np.float32, "float64": np.float64,
                "Fraction": Fraction, "complex": complex, "int": int}


@pytest.mark.parametrize("kind", NUMBER_TYPES)
def test_coefficients_are_stored_as_float_and_complex(kind):
    """Any real number type builds coefficients; the real fields come out
    as float, a_123 as complex, and the certificates serialize."""
    num = NUMBER_TYPES[kind]
    for cls, decide, d in ((werner3.S3Coeffs, werner3.detect_entanglement_w3,
                            4), (quo.QuoCoeffs, quo.decide_quo, 2),
                           (quo.QuoCoeffs, quo.decide_quo, 4)):
        # 1/d^3 is exact in float32 at d = 2, 4, so the trace stays 1
        c = cls(d, num(1) / num(d**3), num(0), num(0), num(0), num(0))
        assert all(type(v) is float for v in c.as_tuple6())
        assert type(c.a_123) is complex
        cert = json.loads(decide(c, grid=4).to_json())
        assert cert["coeffs"]["a_e"] == 1 / d**3
        assert cls.from_tuple6(d, [num(0)] * 6).a_123 == 0
    co = hh.HHCoeffs(3, num(1), num(1) / num(4), num(0))
    assert all(type(v) is float for v in (co.a, co.b, co.c))
    assert json.loads(hh.decide(co).to_json())["verdict"] == "EB"


@pytest.mark.parametrize("bad", ["0.5", True, None, np.nan, np.inf,
                                 np.float32(np.inf), 0.5 + 0.25j],
                         ids=["str", "bool", "None", "nan", "inf",
                              "float32-inf", "complex"])
def test_bad_coefficients_are_contract_errors(bad):
    for i in range(4):
        args = [0.0] * 4
        args[i] = bad
        for cls in (werner3.S3Coeffs, quo.QuoCoeffs):
            with pytest.raises(ContractError):
                cls(3, *args, 0j)
            with pytest.raises(ContractError):
                cls.from_tuple6(3, args + [0.0, 0.0])
    for i in range(3):
        args = [0.0] * 3
        args[i] = bad
        with pytest.raises(ContractError):
            hh.HHCoeffs(3, *args)
    for re_im in ([bad, 0.0], [0.0, bad]):
        with pytest.raises(ContractError):
            werner3.S3Coeffs.from_tuple6(3, [0.0] * 4 + re_im)
    if not isinstance(bad, complex):
        with pytest.raises(ContractError):
            quo.QuoCoeffs(3, 0.0, 0.0, 0.0, 0.0, bad)
    for cls in (werner3.S3Coeffs, quo.QuoCoeffs):  # exactly six values
        for v in (bad, [0.0] * 3, [0.0] * 6 + [bad], [0.0] * 7):
            with pytest.raises(ContractError):
                cls.from_tuple6(3, v)


# constructor -> (its least d, a call with that d)
D_SITES = {
    "S3Coeffs": (3, lambda d: werner3.S3Coeffs(d, 1 / 27, 0, 0, 0, 0)),
    "S3Coeffs.from_tuple6": (3, lambda d: werner3.S3Coeffs.from_tuple6(
        d, [0] * 6)),
    "QuoCoeffs": (2, lambda d: quo.QuoCoeffs(d, 1 / 27, 0, 0, 0, 0)),
    "HHCoeffs": (2, lambda d: hh.HHCoeffs(d, 1, 0, 0)),
    "hh.extremals": (2, hh.extremals),
    "rho_t_coeffs": (3, lambda d: werner3.rho_t_coeffs(d, 1)),
    "t_max": (3, werner3.t_max),
    "extremal_w3": (3, lambda d: werner3.extremal_w3("I", d=d)),
    "extremal_quo": (2, lambda d: quo.extremal_quo("III", 0.5, 0.5, 0.0,
                                                   -1, d)),
    "witness_L0": (3, werner3.witness_L0),
    "twirl.hh_basis": (2, twirl.hh_basis),
    "LinMap.d_in": (1, lambda d: LinMap(d, 1, np.eye(3))),
    "LinMap.d_out": (1, lambda d: LinMap(1, d, np.eye(3))),
    "matrix_from_obj.rows": (1, lambda d: serialize.matrix_from_obj(
        {"rows": d, "cols": 1, "data": [[0, 0]] * 3})),
    "matrix_from_obj.cols": (1, lambda d: serialize.matrix_from_obj(
        {"rows": 1, "cols": d, "data": [[0, 0]] * 3})),
}


@pytest.mark.parametrize("site", D_SITES)
def test_every_dimension_goes_through_the_integer_rule(site):
    least, make = D_SITES[site]
    for d in (3, np.int64(3), np.int32(3)):
        out = make(d)
        if hasattr(out, "d"):
            assert type(out.d) is int
    for bad in (3.0, 3.5, True, "3", None):
        with pytest.raises(ContractError):
            make(bad)
    with pytest.raises(DimensionError):
        make(least - 1)


@pytest.mark.parametrize("num", [np.int64, np.int32])
def test_numpy_integer_d_and_grid_serialize_as_int(num):
    d = num(3)
    certs = (werner3.detect_entanglement_w3(werner3.rho_t_coeffs(d, 1),
                                            grid=num(4)),
             quo.decide_quo(quo.QuoCoeffs(d, 1 / 27, 0, 0, 0, 0),
                            grid=num(4)),
             hh.decide(hh.HHCoeffs(d, 1, 0.25, 0)))
    for cert in certs:
        got = json.loads(cert.to_json())["d"]
        assert type(got) is int and got == 3


@pytest.mark.parametrize("bad", [4.5, True, 1, "4", None, s3.MAX_GRID + 1])
def test_bad_grids_are_contract_errors(bad):
    for decide, c in ((werner3.detect_entanglement_w3,
                       werner3.rho_t_coeffs(3, 1)),
                      (quo.decide_quo, quo.QuoCoeffs(3, 1 / 27, 0, 0, 0, 0))):
        with pytest.raises(ContractError):
            decide(c, grid=bad)
