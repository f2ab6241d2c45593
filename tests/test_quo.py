"""The partially transposed permutation-operator family: maps M_sigma,
reduction at d = 2, closed-form membership tests, and the PPT = separability
equivalence across the A-BC cut."""

import itertools

import numpy as np
import pytest

from covwit import quo, s3
from covwit.linalg import (ContractError, DimensionError, is_psd,
                           partial_transpose)
from covwit.oracle import brute_positive_orbit
from covwit.twirl import PERMS, build_T, build_V


def random_coeffs(rng, d):
    v = rng.uniform(-1, 1, size=6)
    return quo.QuoCoeffs(d, v[0], v[1], v[2], v[3], complex(v[4], v[5]))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("sigma", PERMS)
def test_T_is_partial_transpose_of_V(sigma, d):
    assert np.array_equal(build_T(sigma, d),
                          partial_transpose(build_V(sigma, d), [d, d, d], 1))


def explicit_M(sigma, x):
    """M_sigma(x) = (T (x) id)(L_sigma(x)) from its closed-form action."""
    d = x.shape[0]
    eye = np.eye(d)
    if sigma == "e":
        return np.trace(x) * np.eye(d * d)
    if sigma == "12":
        return np.kron(x, eye)
    if sigma == "13":
        return np.kron(eye, x.T)
    v = eye.reshape(-1)
    if sigma == "23":
        return np.trace(x) * np.outer(v, v)
    out = np.zeros((d, d, d, d), dtype=complex)
    for j1, j2, j3 in itertools.product(range(d), repeat=3):
        if sigma == "123":
            out[j3, j3, j2, j1] += x[j1, j2]
        else:
            out[j1, j3, j2, j2] += x[j1, j3]
    return out.reshape(d * d, d * d)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sigma", PERMS)
def test_M_choi_is_T(sigma, d):
    """The map with unnormalized Choi matrix T_sigma acts as M_sigma."""
    rng = np.random.default_rng(d)
    m = quo.build_M(sigma, d)
    assert m.family == "quo-M"
    for _ in range(3):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(m(x) - explicit_M(sigma, x)).max() < 1e-12


@pytest.mark.parametrize("lam", [1e6, 1e7, 1e8])
def test_state_check_is_invariant_under_the_d2_relation(lam):
    """Shifting a d = 2 state by lam (1, -1, -1, -1, 1, 0) leaves the
    operator as it is (T_e = T_12 + T_13 + T_23 - T_123 - T_132), so the
    state check and the verdict stay; the trace only rounds at scale lam."""
    c = quo.QuoCoeffs.from_tuple6(2, (0.1, 0.01, -0.02, 0.03, 0.004, 0.002))
    c = c.scale_by(1 / c.trace())
    ae, a12, a13, a23, r, s = c.as_tuple6()
    shifted = quo.QuoCoeffs.from_tuple6(
        2, (ae + lam, a12 - lam, a13 - lam, a23 - lam, r + lam, s))
    assert (quo.decide_quo(shifted, grid=4).verdict
            == quo.decide_quo(c, grid=4).verdict)
    with pytest.raises(ContractError, match="not a normalized state"):
        s3.state_check(c.scale_by(1 + 1e-6))


def test_coeffs_validation():
    with pytest.raises(DimensionError):
        quo.QuoCoeffs(1, 0, 0, 0, 0, 0)
    with pytest.raises(ContractError):
        quo.QuoCoeffs(2, np.inf, 0, 0, 0, 0)


def test_reduce_d2_preserves_invariant_matrix():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = random_coeffs(rng, 2)
        r = quo.QuoCoeffs.from_tuple6(2, quo.reduce_d2(2, c.as_tuple6()))
        assert r.a_e == 0.0
        assert np.abs(quo.invariant_matrix(c)
                      - quo.invariant_matrix(r)).max() < 1e-12
    t3 = random_coeffs(rng, 3).as_tuple6()
    assert quo.reduce_d2(3, t3) is t3


def m_e11(c):
    """Eigenvalues of the dense M(e_11) and its Frobenius norm."""
    e11 = np.zeros((c.d, c.d), dtype=complex)
    e11[0, 0] = 1.0
    m = quo.build_map(c)(e11)
    return np.linalg.eigvalsh((m + m.conj().T) / 2), np.linalg.norm(m)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_least_margin_is_the_least_eigenvalue_of_m_e11(d):
    """One formula at every d, on reduce_d2(d, t): its least margin is
    M(e_11)'s least eigenvalue."""
    rng = np.random.default_rng(30 + d)
    for _ in range(40):
        c = random_coeffs(rng, d)
        ev, norm = m_e11(c)
        lo = min(quo.QuoCoeffs.margins6(d, c.as_tuple6()))
        assert abs(lo - ev[0]) <= 1e-12 * norm, c


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_a_e_margin_has_multiplicity_d_times_d_minus_2(d):
    """The a_e margin, kept only where its multiplicity d(d - 2) is not 0,
    is that many eigenvalues of M(e_11)."""
    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        c = random_coeffs(rng, d)
        ev, norm = m_e11(c)
        assert quo.QuoCoeffs.margins6(d, c.as_tuple6())[0] == c.a_e
        assert np.sum(np.abs(ev - c.a_e) <= 1e-12 * norm) == d * (d - 2), c


@pytest.mark.parametrize("d", [2, 3, 4])
def test_positivity_closed_form_vs_orbit_oracle(d):
    rng = np.random.default_rng(d)
    for _ in range(300):
        c = random_coeffs(rng, d)
        if any(abs(m) < 1e-7 for m in c.margins6(c.d, c.as_tuple6())):
            continue
        assert quo.is_positive_quo(c) == \
            brute_positive_orbit(quo.build_map(c))[0], c


@pytest.mark.parametrize("d", [2, 3])
def test_cp_ccp_vs_numeric(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(150):
        c = random_coeffs(rng, d)
        x = quo.invariant_matrix(c)
        assert quo.is_cp_quo(c) == is_psd(x)[0]
        xa = partial_transpose(x, [d, d, d], 0)
        assert quo.is_ccp_quo(c) == is_psd(xa)[0]


@pytest.mark.parametrize("d", [2, 3])
def test_ppt_verdicts_vs_numeric(d):
    rng = np.random.default_rng(20 + d)
    for _ in range(100):
        c = random_coeffs(rng, d)
        x = quo.invariant_matrix(c)
        got = quo.ppt_quo(c)
        for which, part in ((0, "A-BC"), (1, "B-AC"), (2, "C-AB")):
            assert got[part] == is_psd(
                partial_transpose(x, [d, d, d], which))[0], (d, part)


def test_trace_quo_matches_matrix():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        c = random_coeffs(rng, d)
        assert np.isclose(np.trace(quo.invariant_matrix(c)).real,
                          c.trace())


@pytest.mark.parametrize("d", [3, 4])
def test_extremals_d3_types(d):
    """Types I/II are fixed tuples (CP resp. CCP); Types III/IV are CP resp.
    CCP across their parameter range."""
    ex1 = quo.extremal_quo("I", d=d)
    assert quo.is_cp_quo(ex1) and quo.is_positive_quo(ex1)
    ex2 = quo.extremal_quo("II", d=d)
    assert quo.is_ccp_quo(ex2) and quo.is_positive_quo(ex2)
    for a, b, c, sg in ((0.5, 0.5, 0.3, 1), (0.8, 0.2, -0.3, -1),
                        (1.0, 0.0, 0.0, 1)):
        e3 = quo.extremal_quo("III", a, b, c, sg, d)
        assert quo.is_cp_quo(e3) and quo.is_positive_quo(e3)
        e4 = quo.extremal_quo("IV", a, b, c, sg, d)
        assert quo.is_ccp_quo(e4) and quo.is_positive_quo(e4)


def test_extremals_d2_types():
    for a, b, c, sg in ((0.6, 0.4, 0.2, 1), (0.3, 0.7, -0.4, -1)):
        e1 = quo.extremal_quo("I'", a, b, c, sg, 2)
        assert quo.is_cp_quo(e1) and quo.is_positive_quo(e1)
        e2 = quo.extremal_quo("II'", a, b, c, sg, 2)
        assert quo.is_ccp_quo(e2) and quo.is_positive_quo(e2)
    with pytest.raises(ContractError):
        quo.extremal_quo("I", d=2)
    with pytest.raises(ContractError):
        quo.extremal_quo("I'", 0.1, 0.1, 0.9, 1, 2)


def test_extremal_tp_normalization():
    for d in (2, 3):
        types = ("III", "IV") if d >= 3 else ("I'", "II'")
        for t in types:
            c = quo.extremal_quo(t, 0.5, 0.5, 0.1, 1, d)
            assert np.isclose(c.trace(), d)  # TP: trace d^3 / d^2...


def test_decide_rejects_grid_below_two():
    c = quo.QuoCoeffs(3, 1.0 / 27, 0, 0, 0, 0)
    with pytest.raises(ContractError):
        quo.decide_quo(c, grid=0)


def test_decide_separable_state():
    """A normalized CP + A-BC PPT invariant state certifies SEPARABLE with a
    clean witness sweep."""
    d = 3
    # maximally mixed state in the T basis
    c = quo.QuoCoeffs(d, 1.0 / d**3, 0, 0, 0, 0)
    cert = quo.decide_quo(c, grid=6)
    assert cert.check_true("ppt_A-BC") and cert.check_true("separable_A-BC")
    assert cert.check_true("witness_sweep")
    assert cert.verdict == "SEPARABLE"
    assert cert.checks["ppt_A-BC"]["evidence"]["margin"] > -1e-9


def test_decide_entangled_state():
    """An invariant state with NPT A-BC cut certifies ENTANGLED and some
    witness fires."""
    d = 3
    # search a random normalized CP state that fails A-BC PPT
    rng = np.random.default_rng(42)
    while True:
        c = random_coeffs(rng, d)
        x = quo.invariant_matrix(c)
        lo = np.linalg.eigvalsh(x)[0].real
        if lo < 0:
            # shift to PSD by adding multiples of T_e = identity
            c = quo.QuoCoeffs(d, c.a_e - 1.05 * lo, c.a_12, c.a_13, c.a_23,
                              c.a_123)
        f = 1.0 / c.trace()
        c = quo.QuoCoeffs(d, f * c.a_e, f * c.a_12, f * c.a_13, f * c.a_23,
                          f * complex(c.a_123))
        if not quo.ppt_quo(c)["A-BC"]:
            break
    cert = quo.decide_quo(c, grid=8)
    assert cert.verdict == "ENTANGLED"
    assert not cert.check_true("witness_sweep")
    assert cert.witnesses[0]["min_eig"] < -1e-9


def test_ppt_transfer_example():
    """Coefficient transfer: partially transposing rho_t across B-AC and
    reading the result in the T basis gives the tuple
    (a_e, 0, 0, a_13, a_123) * prefactor; its three PPT verdicts follow the
    closed forms."""
    d, t = 3, 1.0
    pf = 1.0 / (d**3 + (t + 1) * d**2 + 2 * t)
    c = quo.QuoCoeffs(d, pf * (d + t) / d, 0.0, 0.0, pf, complex(pf * t / d))
    got = quo.ppt_quo(c)
    # numeric cross-check
    x = quo.invariant_matrix(c)
    for which, part in ((0, "A-BC"), (1, "B-AC"), (2, "C-AB")):
        assert got[part] == is_psd(
            partial_transpose(x, [d, d, d], which))[0]
    assert got["A-BC"] and not got["C-AB"]


def test_state_check_rejects():
    with pytest.raises(ContractError):
        s3.state_check(quo.QuoCoeffs(3, 1.0, 0, 0, 0, 0))  # trace 27
    # normalized but not PSD
    c = quo.QuoCoeffs(3, 0.0, 0.0, 0.0, 1.0 / 9, 0)
    if not quo.is_cp_quo(c):
        with pytest.raises(ContractError):
            s3.state_check(c)
