"""The signed-permutation covariant family: positivity facets, CP/CCP
polytopes, PPT = entanglement breaking, and the two separability identities
behind it."""

import numpy as np
import pytest

from covwit import hh, oracle
from covwit.linalg import (ContractError, DimensionError,
                           UnsupportedDimensionError, is_psd)
from covwit.twirl import hh_basis, coefficients


def choi_psd(co):
    return is_psd(hh.build_psi(co).choi(normalized=True))[0]


def test_coeffs_validation():
    with pytest.raises(DimensionError):
        hh.HHCoeffs(1, 0, 1, 0)
    with pytest.raises(ContractError):
        hh.HHCoeffs(3, np.nan, 0, 0)
    for bad in ("x", True, None):
        with pytest.raises(ContractError):
            hh.HHCoeffs(3, 1, bad, 0)
    assert hh.HHCoeffs(3, 1, 0.5, -0.2).swapped() == \
        hh.HHCoeffs(3, 1, -0.2, 0.5)


def test_build_psi_action():
    rng = np.random.default_rng(0)
    d = 3
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = hh.build_psi(hh.HHCoeffs(d, 0.3, 0.4, 0.1))
    expect = (0.3 * np.trace(x) / d * np.eye(d) + 0.4 * x + 0.1 * x.T
              + 0.2 * np.diag(np.diag(x)))
    assert np.allclose(m(x), expect)
    # unital and trace preserving for any (a, b, c)
    assert np.allclose(m(np.eye(d)), np.eye(d))
    assert np.isclose(np.trace(m(x)), np.trace(x))


def test_choi_in_basis_span():
    """The unnormalized Choi is the matching combination of the four basis
    Chois."""
    d = 3
    co = hh.HHCoeffs(d, 0.7, -0.2, 0.5)
    c = hh.build_psi(co).choi(normalized=False)
    got = coefficients(c, hh_basis(d))
    assert np.abs(got - np.array([0.7, -0.2, 0.5, 1 - 0.7 + 0.2 - 0.5])
                  ).max() < 1e-10


def test_positivity_tag4_example():
    ok, tag = hh.is_positive(hh.HHCoeffs(3, 0.0, -0.6, 0.0))
    assert not ok and tag == 4


def test_positivity_requires_d3():
    with pytest.raises(UnsupportedDimensionError):
        hh.is_positive(hh.HHCoeffs(2, 1, 0, 0))


@pytest.mark.parametrize("d", [3, 4])
def test_counterexample_vectors_detect_each_facet(d):
    """Just outside each facet, the designated vector certifies
    non-positivity; margins localize the violated constraint."""
    # interior point plus a per-facet outward step
    probes = {
        1: hh.HHCoeffs(d, -0.05, 0.5, 0.0),
        2: hh.HHCoeffs(d, 0.5, 0.7, 0.5 - 0.45 * (d - 2) / d),
        3: hh.HHCoeffs(d, 0.5, 0.6, -0.5 + 0.45 * (d - 2) / d),
        4: hh.HHCoeffs(d, 0.1, -0.6, 0.55 - 1.0 / (d - 1)),
        5: hh.HHCoeffs(d, 0.2, 0.9, -0.15 / (d - 1)),
        6: hh.HHCoeffs(d, 0.2, -0.15 / (d - 1), 0.9),
    }
    for tag, co in probes.items():
        margins = hh.positivity_margins(co)
        assert margins[tag] < 0, (tag, margins)
        ok, _ = hh.is_positive(co)
        assert not ok
        v = hh.counterexample_vector(tag, d)
        assert np.isclose(np.linalg.norm(v), 1.0)
        out = hh.build_psi(co)(np.outer(v, v.conj()))
        lo = np.linalg.eigvalsh((out + out.conj().T) / 2)[0]
        assert lo < -1e-9, (tag, lo)


def test_counterexample_vector_rejects_bad_tag():
    with pytest.raises(ContractError):
        hh.counterexample_vector(0, 3)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_cptp_closed_form_vs_choi(d):
    rng = np.random.default_rng(d)
    for _ in range(300):
        co = hh.HHCoeffs(d, *rng.uniform(-2, 2, size=3))
        if hh.on_boundary(co):
            continue
        assert hh.is_cptp(co) == choi_psd(co)


def test_ccp_is_cptp_of_swap():
    rng = np.random.default_rng(6)
    for _ in range(100):
        co = hh.HHCoeffs(3, *rng.uniform(-2, 2, size=3))
        c = hh.build_psi(co).choi(normalized=True)
        pt = c.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        if not hh.on_boundary(co):
            assert hh.is_ccp(co) == is_psd(pt)[0]


def test_extremal_accounting():
    """8 positive-extremal maps; the 4 CP ones have PSD Choi, the 4 CCP ones
    PSD partial transpose; every PPT vertex passes both inequality systems;
    all midpoints of PPT vertices stay PPT."""
    d = 3
    ext = hh.extremals(d)
    assert len(ext.cp_vertices) == 4 and len(ext.ccp_vertices) == 4
    for v in ext.cp_vertices:
        assert hh.is_cptp(v) and choi_psd(v)
        assert hh.is_positive(v)[0]
    for v in ext.ccp_vertices:
        assert hh.is_ccp(v)
        assert hh.is_positive(v)[0]
    assert len(ext.ppt_vertices) == 8
    vs = [hh.HHCoeffs(d, *t) for t in ext.ppt_vertices]
    for v in vs:
        assert hh.is_ppt(v)
    for i in range(8):
        for j in range(i + 1, 8):
            mid = hh.HHCoeffs(d, (vs[i].a + vs[j].a) / 2,
                              (vs[i].b + vs[j].b) / 2,
                              (vs[i].c + vs[j].c) / 2)
            assert hh.is_ppt(mid)


def test_ppt_vertex_v4():
    assert hh.is_ppt(hh.HHCoeffs(3, 1.0, 1 / 3, 1 / 3))


def test_wh_vertices_are_ppt_with_unit_coefficient_sum():
    for d in (3, 5):
        for v in hh.wh_vertices(d):
            assert np.isclose(v.a + v.b + v.c, 1.0)
            assert hh.is_ppt(v)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_wh_w2_identity(d):
    assert oracle.wh_w2_identity(d)


@pytest.mark.parametrize("d", [3, 6])
def test_wh_w2_identity_reads_the_w1_vertex(monkeypatch, d):
    """Half (ii) reads the A matrix of the w1 channel, so a w1 vertex moved
    off its place fails the identity while w2 stays as it is."""
    vertices = hh.wh_vertices

    def moved(d):
        w1, *rest = vertices(d)
        return (hh.HHCoeffs(d, w1.a - 0.01, w1.b + 0.01, w1.c), *rest)

    monkeypatch.setattr(hh, "wh_vertices", moved)
    assert not oracle.wh_w2_identity(d)


def test_decide_eb_vertex():
    cert = hh.decide(hh.HHCoeffs(3, 1.0, 1 / 3, 1 / 3))
    assert cert.check_true("ppt") and cert.check_true("eb")
    assert cert.check_true("separable_choi")
    assert cert.verdict == "EB"
    assert len(cert.witnesses) == 8


def test_decide_non_eb_channel():
    cert = hh.decide(hh.HHCoeffs(3, 0.5, 0.5, 0.0))
    assert not cert.check_true("ppt") and cert.verdict == "NOT-EB"
    assert not cert.check_true("separable_choi")
    assert min(w["min_eig"] for w in cert.witnesses) < -1e-9


def test_decide_rejects_bad_input():
    with pytest.raises(UnsupportedDimensionError):
        hh.decide(hh.HHCoeffs(2, 1, 0, 0))
    with pytest.raises(ContractError):
        hh.decide(hh.HHCoeffs(3, -1.0, 0.0, 0.0))


def test_certificate_json_is_deterministic():
    a = hh.decide(hh.HHCoeffs(3, 1.0, 1 / 3, 1 / 3)).to_json()
    b = hh.decide(hh.HHCoeffs(3, 1.0, 1 / 3, 1 / 3)).to_json()
    assert a == b and a.endswith("\n")
