"""Channel/state duality: Choi matrices, application, adjoints, id (x) L."""

import numpy as np
import pytest

from covwit.choi import (LinMap, identity_map, max_entangled, transpose_map)
from covwit.linalg import DimensionError, flip, partial_transpose


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_map(rng, d_in, d_out):
    c = rng.standard_normal((d_in * d_out, d_in * d_out)) \
        + 1j * rng.standard_normal((d_in * d_out, d_in * d_out))
    return LinMap(d_in, d_out, c)


def test_max_entangled():
    om = max_entangled(3)
    assert np.isclose(np.trace(om), 1.0)
    ev = np.linalg.eigvalsh(om)
    assert np.abs(ev[:-1]).max() < 1e-14 and np.isclose(ev[-1], 1.0)


def test_identity_and_transpose_chois():
    d = 3
    assert np.allclose(identity_map(d).choi(normalized=True),
                       max_entangled(d))
    assert np.allclose(transpose_map(d).choi(normalized=False), flip(d))


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
    out = transpose_map(3).id_tensor(rho, 4)
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
