"""Core linear-algebra utilities: partial transposes, Hermitian and PSD
checks."""

import numpy as np
import pytest

from covwit import hh, werner3
from covwit.linalg import (DEFAULT_TOL, MAX_DIM, ContractError,
                           DimensionError, Tolerances, check_dense,
                           check_hermitian, flip, identity, is_psd,
                           partial_transpose)
from covwit.twirl import build_V


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(psd_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(eq_tol=-1e-9)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Tolerances(psd_tol=bad)
        with pytest.raises(ValueError):
            Tolerances(eq_tol=bad)
    t = Tolerances(psd_tol=1e-6)
    assert t.psd_tol == 1e-6 and t.eq_tol == DEFAULT_TOL.eq_tol


def test_flip():
    f = flip(3)
    # F(x (x) y) = y (x) x on product vectors
    x = np.arange(3.0)
    y = np.array([2.0, -1.0, 0.5])
    assert np.allclose(f @ np.kron(x, y), np.kron(y, x))
    assert np.allclose(f @ f, identity(9))


def test_dense_builds_are_capped_before_they_allocate():
    check_dense(MAX_DIM)
    with pytest.raises(DimensionError):
        check_dense(MAX_DIM + 1)
    with pytest.raises(DimensionError):
        build_V("e", 17)
    with pytest.raises(DimensionError):
        werner3.invariant_matrix(werner3.S3Coeffs(17, 1, 0, 0, 0, 0))
    with pytest.raises(DimensionError):
        hh.build_psi(hh.HHCoeffs(65, 1, 0, 0))


def test_partial_transpose_factors():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    c = random_hermitian(rng, 2)
    x = np.kron(a, np.kron(b, c))
    assert np.allclose(partial_transpose(x, [2, 3, 2], 1),
                       np.kron(a, np.kron(b.T, c)))
    assert np.allclose(partial_transpose(x, [2, 3, 2], 0),
                       np.kron(a.T, np.kron(b, c)))
    # involution and full-transpose composition
    y = random_hermitian(rng, 12)
    pt = partial_transpose(y, [2, 3, 2], 1)
    assert np.allclose(partial_transpose(pt, [2, 3, 2], 1), y)
    z = y
    for w in range(3):
        z = partial_transpose(z, [2, 3, 2], w)
    assert np.allclose(z, y.T)


def test_partial_transpose_errors():
    with pytest.raises(DimensionError):
        partial_transpose(np.eye(6), [2, 2], 0)
    with pytest.raises(DimensionError):
        partial_transpose(np.eye(4), [2, 2], 2)


def test_check_hermitian_rejects():
    with pytest.raises(ContractError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        check_hermitian(np.zeros((2, 3)))


def test_is_psd():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = z @ z.conj().T
    ok, lo = is_psd(psd)
    assert ok and lo > -1e-12
    ok, lo = is_psd(psd - 1.1 * np.linalg.eigvalsh(psd)[0].real * np.eye(4)
                    - 0.5 * np.trace(psd).real * np.eye(4))
    assert not ok and lo < 0

