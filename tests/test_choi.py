"""Channel/state duality: Choi matrices, application, adjoints, id (x) L."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwit import hh, werner3
from covwit.choi import LinMap, identity_map, max_entangled
from covwit.linalg import (ContractError, DimensionError, flip,
                           partial_transpose)
from covwit.s3 import PERMS


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_map(rng, d_in, d_out):
    return LinMap(d_in, d_out, random_matrix(rng, d_in * d_out))


def test_max_entangled():
    om = max_entangled(3)
    assert np.isclose(np.trace(om), 1.0)
    ev = np.linalg.eigvalsh(om)
    assert np.abs(ev[:-1]).max() < 1e-14 and np.isclose(ev[-1], 1.0)


def test_identity_choi_is_max_entangled():
    d = 3
    assert np.allclose(identity_map(d).choi(normalized=True),
                       max_entangled(d))


def test_choi_roundtrip_apply():
    """Applying through the Choi matrix reproduces the closed-form action."""
    rng = np.random.default_rng(0)
    d = 3

    def fn(x):
        return x.T * 2.0 + np.trace(x) * np.eye(d)

    m = LinMap(d, d, 2.0 * flip(d) + np.eye(d * d))
    for _ in range(5):
        x = random_hermitian(rng, d)
        assert np.allclose(m(x), fn(x))


def test_adjoint_pairing():
    """Tr(L(X) Y) = Tr(X L*(Y)) for the bilinear pairing."""
    rng = np.random.default_rng(1)
    m = random_map(rng, 3, 4)
    ma = m.adjoint()
    assert (ma.d_in, ma.d_out) == (4, 3)
    for _ in range(5):
        x = random_hermitian(rng, 3)
        y = random_hermitian(rng, 4)
        assert np.isclose(np.trace(m(x) @ y), np.trace(x @ ma(y)))
    # double adjoint is the original map
    assert np.allclose(ma.adjoint().choi(normalized=False),
                       m.choi(normalized=False))


def test_id_tensor_on_product_states():
    """(id (x) L)(A (x) B) = A (x) L(B)."""
    rng = np.random.default_rng(2)
    m = random_map(rng, 3, 2)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 3)
    out = m.id_tensor(np.kron(a, b), 4)
    assert out.shape == (8, 8)
    assert np.allclose(out, np.kron(a, m(b)))


def test_id_tensor_transpose_is_partial_transpose():
    rng = np.random.default_rng(3)
    rho = random_hermitian(rng, 12)
    out = LinMap(3, 3, flip(3)).id_tensor(rho, 4)
    assert np.allclose(out, partial_transpose(rho, [4, 3], 1))


def test_dimension_errors():
    with pytest.raises(DimensionError):
        LinMap(0, 2, np.eye(0))
    with pytest.raises(DimensionError):
        LinMap(2, 3, np.eye(5))
    m = identity_map(2)
    with pytest.raises(DimensionError):
        m(np.eye(3))
    with pytest.raises(DimensionError):
        m.id_tensor(np.eye(5), 2)


@pytest.mark.parametrize("d_id, error, text", [
    (3.0, ContractError, "d_id must be an integer"),
    (True, ContractError, "d_id must be an integer"),
    (0, DimensionError, "d_id must be >= 1"),
    (-1, DimensionError, "d_id must be >= 1"),
])
def test_id_tensor_d_id_follows_the_integer_rule(d_id, error, text):
    with pytest.raises(error, match=text):
        identity_map(3).id_tensor(np.eye(9), d_id)


# The definitions the realignment kernel replaced, kept as the reference.
def apply_reference(m, x):
    c4 = m.choi(normalized=False).reshape(m.d_in, m.d_out, m.d_in, m.d_out)
    return np.einsum("ij,ikjl->kl", x, c4)


def id_tensor_reference(m, rho, d_id):
    c4 = m.choi(normalized=False).reshape(m.d_in, m.d_out, m.d_in, m.d_out)
    rho4 = rho.reshape(d_id, m.d_in, d_id, m.d_in)
    n = d_id * m.d_out
    return np.einsum("aibj,ikjl->akbl", rho4, c4).reshape(n, n)


def assert_matches_reference(m, d_id, rng):
    x = random_matrix(rng, m.d_in)
    rho = random_matrix(rng, d_id * m.d_in)
    scale = np.linalg.norm(m.choi(normalized=False))
    out, ref = m(x), apply_reference(m, x)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-12 * scale * np.linalg.norm(x)
    out, ref = m.id_tensor(rho, d_id), id_tensor_reference(m, rho, d_id)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-12 * scale * np.linalg.norm(rho)


dim = st.integers(1, 4)


@settings(max_examples=80)
@given(d_id=dim, d_in=dim, d_out=dim, seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_einsum_definition(d_id, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    assert_matches_reference(random_map(rng, d_in, d_out), d_id, rng)


@settings(max_examples=24)
@given(sigma=st.sampled_from(PERMS), d=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_einsum_on_werner3_maps(sigma, d, seed):
    """The d -> d^2 werner3-L shape and its d^2 -> d adjoint."""
    rng = np.random.default_rng(seed)
    m = werner3.build_L(sigma, d)
    assert_matches_reference(m, d, rng)
    assert_matches_reference(m.adjoint(), d, rng)


@pytest.mark.parametrize("d", range(3, 9))
def test_hh_witness_min_eigs_match_einsum_images(d):
    """hh.decide's eight witness min_eig values equal the least eigenvalues
    of the einsum images, on an EB and a NOT-EB channel."""
    ext = hh.extremals(d)
    mean = np.mean([(v.a, v.b, v.c) for v in hh.ppt_vertices(d)], axis=0)
    for co in (hh.HHCoeffs(d, *mean), hh.HHCoeffs(d, 0.0, 1.0, 0.0)):
        cert = hh.decide(co)
        rho = hh.build_psi(co).choi(normalized=True)
        want = [np.linalg.eigvalsh(
                    id_tensor_reference(hh.build_psi(v), rho, d))[0]
                for v in ext.cp_vertices + ext.ccp_vertices]
        got = [w["min_eig"] for w in cert.witnesses]
        assert np.abs(np.subtract(got, want)).max() <= 1e-12
