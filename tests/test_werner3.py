"""Tripartite Werner symmetry: covariant maps L_sigma, block isomorphisms,
extremal witnesses, and the PPT-entangled state family rho_t."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from covwit import quo, s3, werner3 as w3
from covwit.linalg import (ContractError, DimensionError, flip, is_psd,
                           partial_transpose)
from covwit.oracle import brute_positive_orbit
from covwit.twirl import PERMS, build_V


def random_coeffs(rng, d=3):
    v = rng.uniform(-1, 1, size=6)
    return w3.S3Coeffs(d, v[0], v[1], v[2], v[3], complex(v[4], v[5]))


def test_coeffs_validation():
    with pytest.raises(DimensionError):
        w3.S3Coeffs(2, 1, 0, 0, 0, 0)
    with pytest.raises(ContractError):
        w3.S3Coeffs(3, np.nan, 0, 0, 0, 0)
    for bad in ("x", True, None):
        with pytest.raises(ContractError):
            w3.S3Coeffs(3, bad, 0, 0, 0, 0)
        with pytest.raises(ContractError):
            w3.S3Coeffs(3, 1, 0, 0, 0, bad)
        with pytest.raises(ContractError):
            w3.S3Coeffs.from_tuple6(3, (1, 0, 0, 0, bad, 0))
    c = w3.S3Coeffs(3, 1, 2, 3, 4, complex(5, 6))
    assert c.r == 5 and c.s == 6
    assert np.allclose(c.vector(), [1, 2, 3, 4, 5 + 6j, 5 - 6j])


def explicit_L(sigma, x):
    """L_sigma(x) from its closed-form action, one index at a time."""
    d = x.shape[0]
    eye = np.eye(d)
    if sigma == "e":
        return np.trace(x) * np.eye(d * d)
    if sigma == "12":
        return np.kron(x.T, eye)
    if sigma == "13":
        return np.kron(eye, x.T)
    if sigma == "23":
        return np.trace(x) * flip(d)
    out = np.zeros((d, d, d, d), dtype=complex)
    for j1, j2, j3 in itertools.product(range(d), repeat=3):
        if sigma == "123":
            out[j2, j3, j3, j1] += x[j1, j2]
        else:
            out[j2, j3, j1, j2] += x[j1, j3]
    return out.reshape(d * d, d * d)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sigma", PERMS)
def test_L_choi_is_V(sigma, d):
    """The map with unnormalized Choi matrix V_sigma acts as L_sigma."""
    rng = np.random.default_rng(d)
    m = w3.build_L(sigma, d)
    assert m.family == "werner3-L"
    for _ in range(3):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(m(x) - explicit_L(sigma, x)).max() < 1e-12


def test_relabel_matches_conjugation():
    """relabel(c, tau) gives the coefficients of V_tau X V_tau."""
    rng = np.random.default_rng(0)
    d = 3
    for tau in ("12", "13", "23"):
        vt = build_V(tau, d)
        for _ in range(5):
            c = random_coeffs(rng, d)
            x = w3.invariant_matrix(c)
            y = w3.invariant_matrix(s3.relabel(c, tau))
            assert np.abs(vt @ x @ vt - y).max() < 1e-12, tau
    with pytest.raises(ContractError):
        s3.relabel(random_coeffs(rng), "123")


def test_invariant_matrix_hermitian_and_trace():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = random_coeffs(rng)
        x = w3.invariant_matrix(c)
        assert np.abs(x - x.conj().T).max() < 1e-12
        assert np.isclose(np.trace(x).real, c.trace())


@pytest.mark.parametrize("d", [3, 4])
def test_positivity_closed_form_vs_orbit_oracle(d):
    rng = np.random.default_rng(d)
    for _ in range(300):
        c = random_coeffs(rng, d)
        if any(abs(m) < 1e-7 for m in c.margins6(c.d, c.as_tuple6())):
            continue
        assert w3.is_positive_w3(c) == \
            brute_positive_orbit(w3.build_map(c))[0]


@pytest.mark.parametrize("d", [3, 4])
def test_block_isomorphisms_vs_psd(d):
    """X PSD iff the F blocks are; X^{T_A} PSD iff the G blocks are."""
    rng = np.random.default_rng(10 + d)
    for _ in range(200):
        c = random_coeffs(rng, d)
        x = w3.invariant_matrix(c)
        assert w3.is_cp_w3(c) == is_psd(x)[0]
        xa = partial_transpose(x, [d, d, d], 0)
        assert w3.is_ccp_w3(c) == is_psd(xa)[0]


def test_G_block_example_a12_only():
    """For the pure a_12 = 1 tuple at d = 3 the G block has the closed form
    [[2, y], [y, 1]] with y = sqrt(d^2-1)/2 and scalar parts 0."""
    c = w3.S3Coeffs(3, 0, 1, 0, 0, 0)
    g = s3.G_iso(c)
    y = np.sqrt(8.0) / 2
    assert g.s1 == 0 and g.s2 == 0
    assert abs(g.b00 - 2.0) < 1e-12 and abs(g.b11 - 1.0) < 1e-12
    assert abs(g.b01 - y) < 1e-12


def test_ppt_verdicts_vs_numeric():
    rng = np.random.default_rng(2)
    d = 3
    for _ in range(100):
        c = random_coeffs(rng, d)
        x = w3.invariant_matrix(c)
        got = w3.ppt_w3(c)
        for which, part in ((0, "A-BC"), (1, "B-AC"), (2, "C-AB")):
            assert got[part] == is_psd(
                partial_transpose(x, [d, d, d], which))[0], part


def test_extremal_types_positive_and_tp():
    for kwargs, want_cp, want_ccp in (
            (dict(type_name="I"), True, False),
            (dict(type_name="II", A=0.5, B=0.5, C=0.25), False, True),
            (dict(type_name="III", A=0.5, B=0.5, C=0.5), True, False),
            (dict(type_name="III", A=0.5, B=0.5, C=-0.5), False, True),
    ):
        c = w3.extremal_w3(d=3, **kwargs)
        assert w3.is_positive_w3(c)
        assert np.isclose(9 * c.a_e + 3 * (c.a_12 + c.a_13 + c.a_23)
                          + 2 * c.r, 1.0)
        assert w3.is_cp_w3(c) == want_cp and w3.is_ccp_w3(c) == want_ccp


def test_extremal_rejects_bad_params():
    with pytest.raises(ContractError):
        w3.extremal_w3("II", A=0.1, B=0.1, C=0.9)
    with pytest.raises(ContractError):
        w3.extremal_w3("X")
    with pytest.raises(ContractError):
        quo.extremal_quo("III", d=2)  # I'/II' at d = 2
    for extremal_fn, t in ((w3.extremal_w3, "II"), (quo.extremal_quo, "III")):
        for bad in ("x", None, True, float("nan"), float("inf"), 1j):
            for name in "ABC":
                with pytest.raises(ContractError):
                    extremal_fn(t, **{"A": 0.5, "B": 0.5, name: bad})
        for bad in (float("nan"), 1.0, 0, 2, -2, True, "1"):
            with pytest.raises(ContractError):
                extremal_fn(t, 0.5, 0.5, 0.0, bad)


def test_witness_L0_canonical_form():
    c = w3.witness_L0(3)
    assert np.allclose(c.vector(), [1, 1, -1, 1, -1, -1])
    assert w3.is_positive_w3(c)
    assert not w3.is_cp_w3(c) and not w3.is_ccp_w3(c)  # non-decomposable


def test_witness_L0_is_the_literal_at_every_d():
    """L0 is (1, 1, -1, 1, -1, 0) bit for bit, not a rescaled extremal that
    drifts by an ulp (it did at 233 of these d, first at d = 39); the Type
    III extremal at (1, 0, 0) scaled to a_e = 1 is within one ulp of it."""
    lit = (1.0, 1.0, -1.0, 1.0, -1.0, 0.0)
    for d in range(3, 3000):
        assert w3.witness_L0(d).as_tuple6() == lit
        ex = w3.extremal_w3("III", 1, 0, 0, d=d)
        row = ex.scale_by(1.0 / ex.a_e).as_tuple6()
        assert all(abs(x - y) <= math.ulp(y) for x, y in zip(row, lit)), d


def test_rho_t_is_state():
    for d, t in ((3, 1.0), (3, 4.0), (4, 2.0)):
        c = w3.rho_t_coeffs(d, t)
        rho = w3.invariant_matrix(c)
        assert np.isclose(np.trace(rho).real, 1.0)
        assert is_psd(rho)[0]
        s3.state_check(c)
    with pytest.raises(ContractError):
        w3.rho_t_coeffs(3, 0.0)


def test_rho_t_rejects_an_overflowing_normalizer():
    with pytest.raises(ContractError):
        w3.rho_t_coeffs(3, 1e308)


def test_rho_t_t_follows_the_coefficient_rule():
    for bad in ("1", None, True, float("nan")):
        with pytest.raises(ContractError):
            w3.rho_t_coeffs(3, bad)
    assert w3.rho_t_coeffs(3, Fraction(1)) == w3.rho_t_coeffs(3, 1.0)


def test_rho_t_certificate_t1():
    """d=3, t=1: A-BC and C-AB PPT, B-AC not; the canonical witness gives
    min eigenvalue -(2/3)/47; overall verdict ENTANGLED."""
    c = w3.rho_t_coeffs(3, 1.0)
    cert = w3.detect_entanglement_w3(c, grid=8)
    assert cert.check_true("ppt_A-BC")
    assert cert.check_true("ppt_C-AB")
    assert not cert.check_true("ppt_B-AC")
    lo = cert.witnesses[0]["min_eig"]
    assert cert.witnesses[0]["id"] == "L0"
    assert abs(lo + (2 / 3) / 47) < 1e-9
    assert cert.verdict == "ENTANGLED"


def test_rho_t_npt_beyond_threshold():
    """Past the A-BC PPT threshold the state is NPT; the witness sweep also
    fires, so the verdict stays ENTANGLED."""
    c = w3.rho_t_coeffs(3, 5.6)
    assert not w3.ppt_w3(c)["A-BC"]
    cert = w3.detect_entanglement_w3(c, grid=8)
    assert cert.verdict in ("ENTANGLED", "NPT-ENTANGLED")


def test_t_max_value():
    """The A-BC PPT threshold at d=3 is (21 + sqrt(1161))/10, comfortably
    above the dimension-uniform bound 3.89."""
    tm = w3.t_max(3)
    assert tm >= 3.89
    assert abs(tm - (21 + np.sqrt(1161)) / 10) < 1e-12
    assert abs(w3.t_max(4) - (32 + np.sqrt(4864)) / 24) < 1e-12
    assert w3.t_max(8) == 4.0


@pytest.mark.parametrize("d", range(3, 21))
def test_t_max_is_the_g_iso_edge(d):
    """The A-BC margin of rho_t changes sign across t_max(d), also where
    rho_t's dense matrix is past the size cap (d >= 17)."""
    tm = w3.t_max(d)

    def margin(t):
        return s3.G_iso(w3.rho_t_coeffs(d, t)).min_margin()

    assert margin(tm * (1 - 1e-9)) > 0 > margin(tm * (1 + 1e-9))


def test_detect_rejects_non_state():
    bad = w3.S3Coeffs(3, 1.0, 0, 0, 0, 0)  # trace 27
    with pytest.raises(ContractError):
        w3.detect_entanglement_w3(bad)


def test_detect_rejects_grid_below_two():
    c = w3.rho_t_coeffs(3, 1.0)
    with pytest.raises(ContractError):
        w3.detect_entanglement_w3(c, grid=1)


def test_detect_inconclusive_on_separable_like_state():
    """The maximally mixed state is invariant and passes every check."""
    d = 3
    c = w3.S3Coeffs(d, 1.0 / d**3, 0, 0, 0, 0)
    cert = w3.detect_entanglement_w3(c, grid=6)
    assert all(cert.check_true(f"ppt_{p}")
               for p in ("A-BC", "B-AC", "C-AB"))
    assert cert.check_true("witness_sweep")
    assert cert.verdict == "INCONCLUSIVE-AT-RESOLUTION"
