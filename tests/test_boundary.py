"""The one boundary rule: linalg.classify, and certificates whose checks are
each classified from their own margin."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covwit import hh, quo, s3, werner3
from covwit.certificate import VERDICTS, Certificate
from covwit.linalg import (NumericalError, Tolerances, band, classify,
                           partial_transpose)

# The d = 2 relation T_e = T_12 + T_13 + T_23 - T_123 - T_132 as a direction
# in (a_e, a_12, a_13, a_23, re_123, im_123): it names the zero operator.
D2_NULL = np.array([1.0, -1.0, -1.0, -1.0, 1.0, 0.0])


def test_classify_band_and_degree():
    tol = Tolerances(psd_tol=0.125)
    assert band(0.5, tol) == 0.125 and band(4.0, tol) == 0.5
    assert band(4.0, tol, degree=2) == 2.0
    assert classify(-0.2, 0.5, tol) == "false"
    assert classify(-0.125, 0.5, tol) == "boundary"
    assert classify(0.125, 0.5, tol) == "boundary"
    assert classify(0.2, 0.5, tol) == "true"
    assert classify(-1.0, 4.0, tol) == "false"
    assert classify(-1.0, 4.0, tol, degree=2) == "boundary"
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
    "is_positive_w3-square": lambda: werner3.is_positive_w3(
        werner3.S3Coeffs(3, 1e200, 1e200, 1e200, -1e200, 0)),
    "witness_sweep-nan-first": lambda: _sweep_with_nan_row(0),
    "witness_sweep-nan-middle": lambda: _sweep_with_nan_row(9),
    "witness_sweep-nan-last": lambda: _sweep_with_nan_row(-1),
}


@pytest.mark.parametrize("call", OVERFLOWS)
def test_nan_and_overflow_are_numerical_failures(call):
    with pytest.raises(NumericalError):
        OVERFLOWS[call]()


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
