"""The signed-permutation covariant family: positivity facets, CP/CCP
polytopes, PPT = entanglement breaking, and the two separability identities
behind it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwit import hh, oracle
from covwit.choi import LinMap
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
        v = oracle.counterexample_vector(tag, d)
        assert np.isclose(np.linalg.norm(v), 1.0)
        out = hh.build_psi(co)(np.outer(v, v.conj()))
        lo = np.linalg.eigvalsh((out + out.conj().T) / 2)[0]
        assert lo < -1e-9, (tag, lo)


def test_counterexample_vector_rejects_bad_tag():
    with pytest.raises(ContractError):
        oracle.counterexample_vector(0, 3)


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
    vs = hh.ppt_vertices(d)
    assert len(vs) == 8
    for v in vs:
        assert hh.is_ppt(v)
    for i in range(8):
        for j in range(i + 1, 8):
            mid = hh.HHCoeffs(d, (vs[i].a + vs[j].a) / 2,
                              (vs[i].b + vs[j].b) / 2,
                              (vs[i].c + vs[j].c) / 2)
            assert hh.is_ppt(mid)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_every_vertex_set_is_a_tuple_of_hhcoeffs(d):
    ext = hh.extremals(d)
    assert [f.name for f in dataclasses.fields(ext)] == [
        "d", "cp_vertices", "ccp_vertices"]
    for vs in (ext.cp_vertices, ext.ccp_vertices, hh.ppt_vertices(d),
               hh.wh_vertices(d)):
        assert type(vs) is tuple
        assert all(type(v) is hh.HHCoeffs and v.d == d for v in vs)


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


coeff = st.floats(-2, 2, allow_nan=False)
dims = st.integers(3, 8)


def coeffs(d):
    return st.builds(hh.HHCoeffs, st.just(d), coeff, coeff, coeff)


def same_map(x, y, scale=1.0):
    return x.d == y.d and np.abs(np.subtract(
        (x.a, x.b, x.c), (y.a, y.b, y.c))).max() <= 1e-12 * scale


@settings(max_examples=60)
@given(data=st.data(), d=dims)
def test_compose_is_the_witness_image(data, d):
    """(id (x) psi_v)(C_psi) is the Choi matrix of psi_v o psi, for any
    (a, b, c), not only channels."""
    v, co = data.draw(coeffs(d)), data.draw(coeffs(d))
    got = hh.build_psi(hh.compose(v, co)).choi()
    want = hh.build_psi(v).id_tensor(hh.build_psi(co).choi(), d)
    assert np.abs(got - want).max() <= 1e-12


@given(data=st.data(), d=dims)
def test_compose_with_id_and_transpose(data, d):
    co = data.draw(coeffs(d))
    ident, transpose = hh.HHCoeffs(d, 0, 1, 0), hh.HHCoeffs(d, 0, 0, 1)
    assert same_map(hh.compose(ident, co), co)
    assert same_map(hh.compose(co, ident), co)
    assert same_map(hh.compose(co, transpose), co.swapped())
    assert same_map(hh.compose(transpose, co), co.swapped())


@given(data=st.data(), d=dims)
def test_compose_is_associative(data, d):
    x, y, z = (data.draw(coeffs(d)) for _ in range(3))
    assert same_map(hh.compose(hh.compose(x, y), z),
                    hh.compose(x, hh.compose(y, z)), scale=1e2)


def test_compose_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        hh.compose(hh.HHCoeffs(3, 1, 0, 0), hh.HHCoeffs(4, 1, 0, 0))


def closed_form_spectrum(co):
    """Spectrum of psi's normalized Choi matrix, ascending, from its four
    eigenspaces: Omega (multiplicity 1), D - Omega (d - 1), and the
    symmetric and antisymmetric off-diagonal parts (d(d - 1)/2 each)."""
    d, a, b, c = co.d, co.a, co.b, co.c
    w = 1.0 - a - b - c
    pairs = d * (d - 1) // 2
    return np.sort(np.repeat(
        [(a / d + b * d + c + w) / d, (a / d + c + w) / d,
         (a / d + c) / d, (a / d - c) / d], [1, d - 1, pairs, pairs]))


def channels(d):
    rng = np.random.default_rng(d)
    mean = np.mean([(v.a, v.b, v.c) for v in hh.ppt_vertices(d)], axis=0)
    return (hh.HHCoeffs(d, *mean),
            hh.HHCoeffs(d, 0.0, 1.0, 0.0),
            hh.HHCoeffs(d, 1.0, 1.0 / d, 1.0 / d),
            *(oracle._random_cptp_hh(rng, d) for _ in range(4)))


@pytest.mark.parametrize("d", range(3, 9))
def test_decide_witnesses_without_id_tensor(monkeypatch, d):
    """decide's witness minima need no id (x) L product; each equals the
    dense image's least eigenvalue and the least of the closed-form
    spectrum of the composed map's normalized Choi matrix, which matches
    the dense spectrum with multiplicities."""
    ext = hh.extremals(d)
    vertices = ext.cp_vertices + ext.ccp_vertices
    cases = []
    for co in channels(d):
        rho = hh.build_psi(co).choi(normalized=True)
        dense = [np.linalg.eigvalsh(hh.build_psi(v).id_tensor(rho, d))[0]
                 for v in vertices]
        closed = []
        for v in vertices:
            image = hh.build_psi(hh.compose(v, co)).choi(normalized=True)
            spectrum = closed_form_spectrum(hh.compose(v, co))
            assert np.abs(spectrum - np.linalg.eigvalsh(image)).max() <= 1e-12
            closed.append(spectrum[0])
        cases.append((co, dense, closed))

    def refuse(*args):
        raise AssertionError("id_tensor on the decide path")

    monkeypatch.setattr(LinMap, "id_tensor", refuse)
    for co, dense, closed in cases:
        got = [w["min_eig"] for w in hh.decide(co).witnesses]
        assert len(got) == 8
        assert np.abs(np.subtract(got, dense)).max() <= 1e-12
        assert np.abs(np.subtract(got, closed)).max() <= 1e-12


@settings(max_examples=100)
@given(data=st.data(), d=dims)
def test_cptp_margins_are_the_choi_spectrum(data, d):
    """The four CP margins, times ((d-1)/d, 1/d, 1/d, 1/d) and repeated
    (1, d-1, d(d-1)/2, d(d-1)/2) times, are the dense spectrum of the
    normalized Choi matrix; the bounds 0 <= a <= d/(d-1) are sums of them."""
    co = data.draw(coeffs(d))
    m = hh.cptp_margins(co)
    assert len(m) == 4
    pairs = d * (d - 1) // 2
    spectrum = np.sort(np.repeat(
        np.multiply(m, [(d - 1) / d, 1 / d, 1 / d, 1 / d]),
        [1, d - 1, pairs, pairs]))
    dense = np.linalg.eigvalsh(hh.build_psi(co).choi(normalized=True))
    assert np.abs(spectrum - dense).max() <= 1e-12
    assert abs(co.a - d * (m[2] + m[3]) / 2) <= 1e-12
    assert abs(d / (d - 1) - co.a - (m[0] + m[1])) <= 1e-12


@pytest.mark.parametrize("d", range(3, 9))
def test_decide_builds_only_the_eight_witness_images(monkeypatch, d):
    """decide makes one map per witness image and none for its checks."""
    built = []
    build_psi = hh.build_psi

    def counted(co):
        built.append(co)
        return build_psi(co)

    monkeypatch.setattr(hh, "build_psi", counted)
    for co in channels(d):
        built.clear()
        hh.decide(co)
        assert len(built) == 8
