"""The one boundary rule: linalg.classify, with a band that scales with
its margin and has no floor, and certificates whose checks are each
classified from their own margin."""

import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covwit import hh, quo, s3, werner3
from covwit.certificate import VERDICTS, Certificate
from covwit.cli import main
from covwit.linalg import (PSD_TOL, ContractError, NumericalError,
                           check_hermitian, classify, partial_transpose)

# The d = 2 relation T_e = T_12 + T_13 + T_23 - T_123 - T_132 as a direction
# in (a_e, a_12, a_13, a_23, re_123, im_123): it names the zero operator.
D2_NULL = np.array([1.0, -1.0, -1.0, -1.0, 1.0, 0.0])


def test_classify_band_and_degree():
    """band = PSD_TOL * scale, below scale 1 as well: no floor."""
    for scale in (2.0**-20, 0.5, 4.0):
        b = PSD_TOL * scale
        assert classify(-b, scale) == classify(b, scale) == "boundary"
        assert classify(-2 * b, scale) == classify(-3 * b, scale) == "false"
        assert classify(2 * b, scale) == "true"
    assert classify(-1e-10, 2.0**-20) == "false"  # no floor below scale 1
    assert classify(-2e-9, 4.0) == "boundary"
    assert classify(-1.0, 4.0) == "false"
    assert classify(0.0, 0.0) == "boundary"


def _sweep_with_nan_row(at):
    """s3.witness_sweep over grid-2 catalogue rows with a NaN row at index
    at of the list."""
    c = werner3.rho_t_coeffs(3, 1.0)
    rows = werner3._witness_coeff_grid(3, 2)
    rows.insert(at % (len(rows) + 1), ("nan", (float("nan"),) * 6))
    s3.witness_sweep(Certificate("werner3", 3, {}), c, rows)


# NaN and overflow inside a closed form; Python's min keeps or drops a NaN
# by where it sits, and abs of a complex and ** raise OverflowError.
OVERFLOWS = {
    "classify-nan": lambda: classify(float("nan"), 1.0),
    "is_cp_w3-nan-block": lambda: werner3.is_cp_w3(
        werner3.S3Coeffs(3, 1e308, 1e308, 1e308, 1e308, 1e308)),
    "ppt_quo-abs-b01": lambda: quo.ppt_quo(
        quo.QuoCoeffs(3, 1e308, -1e308, 1e308, 1e308, 1e308)),
    "witness_sweep-nan-first": lambda: _sweep_with_nan_row(0),
    "witness_sweep-nan-middle": lambda: _sweep_with_nan_row(9),
    "witness_sweep-nan-last": lambda: _sweep_with_nan_row(-1),
    "positive6-nan-linear": lambda: s3.positive6(
        werner3.S3Coeffs, 3, (float("inf"), float("-inf"), 0, 0, 0, 0)),
    "positive6-inf-sums": lambda: s3.positive6(
        werner3.S3Coeffs, 3, (1e308, 1e308, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("call", OVERFLOWS)
def test_nan_and_overflow_are_numerical_failures(call):
    with pytest.raises(NumericalError):
        OVERFLOWS[call]()


@pytest.mark.parametrize("t", [(1.0, 1.0, 1.0, -1.0, 0.0, 0.0),
                               (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)],
                         ids=["is_positive_w3-square",
                              "positive6-inf-quadratic"])
def test_positivity_at_1e200_is_decided_as_at_unit_scale(t):
    """The block's least eigenvalue, unlike its determinant, is of degree 1,
    so these inputs no longer overflow: 1e200 * t reads as t does."""
    big = tuple(1e200 * x for x in t)
    assert s3.positive6(werner3.S3Coeffs, 3, t) is True
    assert s3.positive6(werner3.S3Coeffs, 3, big) is True
    assert werner3.is_positive_w3(werner3.S3Coeffs.from_tuple6(3, big))


def test_hh_checks_are_classified_from_their_own_margins():
    """c + a/d = 0 puts the channel on a CP facet; every CCP margin is
    >= 0.1, so ccp stays "true"."""
    cert = hh.decide(hh.HHCoeffs(3, 0.3, 0, -0.1))
    got = {k: v["verdict"] for k, v in cert.checks.items()}
    for name in ("cp", "ppt", "eb", "separable_choi"):
        assert got[name] == "boundary", (name, got)
    assert got["ccp"] == "true" and got["positive"] == "true"
    assert cert.checks["ccp"]["evidence"]["margin"] >= 0.1 - 1e-15
    assert cert.verdict == "EB"


def _mix(c, p):
    """p * rho + (1 - p) * I / d^3 in quo coefficients."""
    v = np.array(c.as_tuple6()) * p
    v[0] += (1 - p) / c.d**3
    return quo.QuoCoeffs.from_tuple6(c.d, tuple(float(x) for x in v))


def test_quo_state_on_its_ppt_edge_reads_boundary():
    c = quo.QuoCoeffs.from_tuple6(3, (1 / 39, 1 / 39, 0, 1 / 39, -1 / 39, 0))
    assert not quo.ppt_quo(c)["A-BC"]
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if quo.ppt_quo(_mix(c, mid))["A-BC"] else (lo, mid)
    cert = quo.decide_quo(_mix(c, lo), grid=4)
    assert cert.checks["ppt_A-BC"]["verdict"] == "boundary"
    assert cert.checks["separable_A-BC"]["verdict"] == "boundary"
    assert cert.verdict == "SEPARABLE"


def test_every_check_has_evidence_and_a_known_verdict():
    w3 = werner3.rho_t_coeffs(3, 1.0)
    certs = (hh.decide(hh.HHCoeffs(3, 0.9, 0.1, 0.05)),
             werner3.detect_entanglement_w3(w3, grid=4),
             quo.decide_quo(quo.QuoCoeffs(2, 0.1, 0.02, -0.01, 0.03,
                                          complex(0.01, 0.02)), grid=4))
    for cert in certs:
        assert cert.checks
        for name, ch in cert.checks.items():
            assert ch["verdict"] in VERDICTS, (cert.family, name)
            assert ch["evidence"], (cert.family, name)


def _dense_pt_min(c):
    x = quo.invariant_matrix(c)
    return float(np.linalg.eigvalsh(partial_transpose(x, [2, 2, 2], 0))[0])


@settings(max_examples=40)
@given(st.lists(st.floats(-1, 1), min_size=5, max_size=5),
       st.floats(1e-6, 1e-5), st.sampled_from((-1.0, 1.0)),
       st.floats(1e4, 1e5), st.sampled_from((-1.0, 1.0)))
def test_quo_d2_verdicts_ignore_the_null_direction(v, t, t_sign, lam,
                                                   lam_sign):
    """A d = 2 tuple and its shift along the d = 2 relation name the same
    operator, so they get the same band and the same verdicts, also for
    states within 1e-5 of the A-BC PPT edge."""
    a12, a13, a23, r, s = v
    x = quo.QuoCoeffs(2, 0.0, a12, a13, a23, complex(r, s))
    shift = 0.1 - float(np.linalg.eigvalsh(quo.invariant_matrix(x))[0])
    rho = quo.QuoCoeffs(2, shift, a12, a13, a23, complex(r, s))
    rho = rho.scale_by(1.0 / rho.trace())
    pt = _dense_pt_min(rho)
    assume(pt < -1e-3)
    target = t_sign * t
    c = _mix(rho, (target - 1 / 8) / (pt - 1 / 8))
    assert 0.9e-6 <= abs(_dense_pt_min(c)) <= 1.1e-5
    shifted = quo.QuoCoeffs.from_tuple6(2, tuple(
        float(u) for u in np.array(c.as_tuple6()) + lam_sign * lam * D2_NULL))
    a = quo.decide_quo(c, grid=4)
    b = quo.decide_quo(shifted, grid=4)
    assert a.verdict == ("ENTANGLED" if target < 0 else "SEPARABLE")
    assert b.verdict == a.verdict
    assert ({k: ch["verdict"] for k, ch in b.checks.items()}
            == {k: ch["verdict"] for k, ch in a.checks.items()})


# Coefficients 0 or of magnitude 1e-3 to 1: scaled by 2^k, k in [-80, 80],
# every product and difference the closed forms take stays a normal float,
# so the scaled arithmetic is the original's times a power of two, exactly.
COEFF = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
FAMILY = st.one_of(st.tuples(st.just(werner3.S3Coeffs), st.integers(3, 8)),
                   st.tuples(st.just(quo.QuoCoeffs), st.integers(2, 8)))


def _sweep_verdict(c):
    """(verdict, least minimum) of witness_sweep over the grid-8 catalogue,
    with werner3's L0 and exact Type III row."""
    if isinstance(c, werner3.S3Coeffs):
        items = chain(werner3.witness_rows(c.d, 8), s3.exact_rows(c))
    else:
        items = s3.catalogue(quo.QuoCoeffs, c.d, 8)
    cert = Certificate("scale", c.d, {})
    s3.witness_sweep(cert, c, items)
    check = cert.checks["witness_sweep"]
    return check["verdict"], check["evidence"]["min_eig"]


@settings(max_examples=150, deadline=None)
@given(FAMILY, st.lists(COEFF, min_size=6, max_size=6), st.integers(-80, 80))
def test_verdicts_are_invariant_under_power_of_two_scaling(family, v, k):
    """Every PSD question of werner3 and quo is homogeneous in the
    coefficients, and so is its band, so c and 2^k c get the same verdict
    from each cut, positivity and the witness sweep; a margin of exactly 0
    is skipped.  (hh's margins are affine, so this does not apply there.)"""
    cls, d = family
    c = cls.from_tuple6(d, v)
    scaled = c.scale_by(2.0**k)
    for cut in ("", "A", "B", "C"):
        verdict, m = s3.classify_cut(c, cut)
        if m != 0:
            assert s3.classify_cut(scaled, cut)[0] == verdict, cut
    if 0 not in cls.margins6(d, c.as_tuple6()):
        assert (s3.positive6(cls, d, scaled.as_tuple6())
                == s3.positive6(cls, d, c.as_tuple6()))
    verdict, lo = _sweep_verdict(c)
    if lo != 0:
        assert _sweep_verdict(scaled)[0] == verdict


def test_quo_npt_state_at_d_1000_is_entangled(tmp_path, capsys):
    """A-BC-NPT by half the state's own least eigenvalue (9.99e-10): an
    absolute band of 1e-9 would read it "boundary" and SEPARABLE."""
    for d, coeffs, margin in (
            (1000, "1/1001500000,3/2003000000,0,0,0,0", -4.99e-10),
            (100, "1/1015000,3/2030000,0,0,0,0", None)):
        out = tmp_path / f"quo-{d}.json"
        assert main(["certify", "quo", "--d", str(d), "--coeffs", coeffs,
                     "--json", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["verdict"] == "ENTANGLED", d
        check = cert["checks"]["ppt_A-BC"]
        assert check["verdict"] == "false", d
        if margin is not None:
            assert check["evidence"]["margin"] == pytest.approx(margin,
                                                                rel=1e-3)
    capsys.readouterr()


@pytest.mark.parametrize("d", [10**3, 10**5, 10**6])
def test_rho_t_at_large_d_is_entangled_by_its_witnesses(d):
    """rho_t(d, 1) is A-BC PPT with a least eigenvalue of about d^-3, and L0
    sees its entanglement at every d."""
    cert = werner3.detect_entanglement_w3(werner3.rho_t_coeffs(d, 1))
    assert cert.checks["ppt_A-BC"]["verdict"] == "true"
    assert cert.checks["witness_sweep"]["verdict"] == "false"
    assert cert.verdict == "ENTANGLED"


def test_check_hermitian_is_relative_at_small_scale():
    h = np.array([[1.0, 1.0], [1.0, 1.0]])
    k = np.array([[0.0, 0.1], [-0.1, 0.0]])
    with pytest.raises(ContractError):
        check_hermitian(1e-12 * (h + k))
    assert np.array_equal(check_hermitian(1e-12 * h), 1e-12 * h)


def test_extremal_reads_a_swept_point_at_a_plus_b_one():
    """(A, B, C) and (kA, kB, kC) name the same map, and AB >= C^2 is
    checked at A + B = 1, a C whose C / (A + B) or square overflows
    included."""
    tiny = werner3.extremal_w3("II", 2**-40, 2**-40, 0).as_tuple6()
    one = werner3.extremal_w3("II", 1, 1, 0).as_tuple6()
    assert [x.hex() for x in tiny] == [x.hex() for x in one]
    for A, C in ((1e-7, 1e-6), (2**-1000, 2**600), (0.5, 1e200)):
        with pytest.raises(ContractError, match=r"AB >= C\^2"):
            werner3.extremal_w3("II", A, A, C)
    with pytest.raises(ContractError):
        werner3.extremal_w3("II", 0, 0, 0)


def outside_disk(A, bands):
    """(A, 1 - A, C), C > 0 with AB - C^2 = -bands times the band at the
    disk's squared radius 1/4, up to rounding; the rounded multiple is
    returned too."""
    B = 1.0 - A
    C = math.sqrt(A * B + bands * PSD_TOL / 4)
    return (A, B, C), (A * B - C * C) / (PSD_TOL / 4)


@pytest.mark.parametrize("cls, d", [(werner3.S3Coeffs, 3), (quo.QuoCoeffs, 2),
                                    (quo.QuoCoeffs, 3)])
@pytest.mark.parametrize("A", [0.5, 0.25, 0.01, 2**-20, 1 - 2**-20])
def test_extremal_reads_the_disk_by_the_boundary_rule(cls, d, A):
    """A point half a band outside AB >= C^2 is on the boundary, so it is
    accepted and realizes the row on the disk, at C = +-sqrt(AB), for
    either sign; two bands outside, it is refused."""
    (A, B, C), half = outside_disk(A, 0.5)
    far, two = outside_disk(A, 2)
    assert -0.6 < half < -0.4 and -2.1 < two < -1.9
    for t in cls.types(d)[1]:
        for c in (C, -C):
            edge = math.copysign(math.sqrt(A * B), c)
            for sign in (1, -1):
                assert s3.extremal(cls, t, A, B, c, sign, d).as_tuple6() == \
                    s3.realize(cls, t, A, B, edge, sign, d)
        for c in (far[2], -far[2]):
            with pytest.raises(ContractError, match=r"AB >= C\^2"):
                s3.extremal(cls, t, *far[:2], c, 1, d)


@pytest.mark.parametrize("d", [3, 8, 100, 10**6, 10**9])
def test_a_rounded_pole_is_realized_at_the_pole(d):
    """(1, 0, +-5e-9) is within the disk band of the pole (1, 0, 0); it is
    realized at C = 0, so it gives the pole's row and passes the positivity
    check at every d, the large d where quo's scale is narrow included."""
    cases = [(quo.extremal_quo, t) for t in quo.QuoCoeffs.types(d)[1]] + [
        (werner3.extremal_w3, t) for t in werner3.S3Coeffs.types(d)[1]]
    for extremal, t in cases:
        for sign in (1, -1):
            pole = extremal(t, 1.0, 0.0, 0.0, sign, d)
            for C in (5e-9, -5e-9):
                assert extremal(t, 1.0, 0.0, C, sign, d) == pole, (t, C)


def test_extremal_accepts_the_grid_ends_and_rounded_poles():
    """C = +-sqrt(AB), the ends of every grid row at grids 2 to 256, lie
    on the disk's edge and are accepted, and so is (1, 0, 5e-10), the
    sphere point (1/2, 5e-10, 0) with A = 1/2 + 1/2 and B = 1/2 - 1/2
    rounded: AB - C^2 is read at the disk's scale, not at AB's."""
    points = [(1.0, 0.0, 5e-10), (0.0, 1.0, -5e-10)]
    for g in range(2, s3.MAX_GRID + 1):
        for u in s3.linspace(-1.0, 1.0, g):
            A, B = (1 + u) / 2, (1 - u) / 2
            cmax = math.sqrt(A * B)
            points += [(A, B, -cmax), (A, B, cmax)]
    for A, B, C in points:
        werner3.extremal_w3("II", A, B, C, 1, 3)
        quo.extremal_quo("III", A, B, C, 1, 3)


@pytest.mark.parametrize("cls, d", [
    (cls, d) for cls in (werner3.S3Coeffs, quo.QuoCoeffs)
    for d in (2, 3, 4, 10**9) if d >= cls.MIN_D])
def test_realize_normalizes_alike_at_every_scale(cls, d):
    """The swept types are homogeneous in (A, B, C), so 2^-k (A, B, C)
    names the row of (A, B, C) bit for bit; no absolute threshold on the
    trace normalizer may refuse it at a small scale."""
    for t in cls.types(d)[1]:
        for A, B, C in ((0.25, 0.75, 0.1), (0.6, 0.4, -0.2), (1.0, 0.0, 0.0)):
            for sign in (1, -1):
                row = repr(s3.realize(cls, t, A, B, C, sign, d))
                for k in range(-80, 81):
                    f = 2.0**-k
                    assert repr(s3.realize(cls, t, f * A, f * B, f * C, sign,
                                           d)) == row, (t, A, B, C, sign, k)
