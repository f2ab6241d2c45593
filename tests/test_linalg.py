"""Core linear-algebra utilities: partial transposes, Hermitian and PSD
checks."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covwit import hh, oracle, quo, werner3
from covwit.linalg import (MAX_DIM, ContractError, DimensionError, check_dense,
                           check_hermitian, finite_number, flip, identity,
                           integer, is_psd, partial_transpose)
from covwit.twirl import build_V


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def test_certificates_record_the_boundary_constants():
    """hh, werner3 and quo certificates record PSD_TOL and EQ_TOL."""
    for cert in (hh.decide(hh.HHCoeffs(3, 1, 0.25, 0)),
                 werner3.detect_entanglement_w3(werner3.rho_t_coeffs(3, 1.0)),
                 quo.decide_quo(quo.QuoCoeffs.from_tuple6(
                     3, [1 / 27, 0, 0, 0, 0, 0]))):
        assert json.loads(cert.to_json())["tolerances"] == {
            "eq_tol": 1e-10, "psd_tol": 1e-09}


@pytest.mark.parametrize("v", [3, np.int64(3), np.int32(3), np.uint8(3)],
                         ids=["int", "int64", "int32", "uint8"])
def test_integer_returns_a_plain_int(v):
    n = integer(v, "d", 2)
    assert type(n) is int and n == 3


@pytest.mark.parametrize("bad", [3.0, 3.5, np.float64(3), True, np.True_,
                                 Fraction(3), 3 + 0j, "3", None],
                         ids=["3.0", "3.5", "float64", "bool", "np-bool",
                              "Fraction", "complex", "str", "None"])
def test_integer_rejects_non_integers(bad):
    for error in (DimensionError, ContractError):
        with pytest.raises(ContractError, match="d must be an integer"):
            integer(bad, "d", 2, error)


class Real(float):
    """A float that is not exactly float: finite_number's general path, with
    float's repr in its message."""


def finite_number_or_message(v, real):
    try:
        z = finite_number(v, "a", real)
    except ContractError as e:
        return str(e)
    return type(z), repr(z.real), repr(z.imag)  # repr tells -0.0 from 0.0


@given(st.floats(), st.booleans())
def test_finite_number_float_fast_path_is_the_general_path(x, real):
    """A float gives bit for bit the value a numpy float64 or a float
    subclass gives through the general path, or the same ContractError."""
    fast = finite_number_or_message(x, real)
    assert fast == finite_number_or_message(Real(x), real)
    if math.isfinite(x):
        assert fast == finite_number_or_message(np.float64(x), real)
    else:
        assert fast == (f"a must be a finite {'real ' if real else ''}"
                        f"number, got {x!r}")
        with pytest.raises(ContractError):
            finite_number(np.float64(x), "a", real)


def test_integer_below_least_raises_the_given_class():
    with pytest.raises(DimensionError, match="d must be >= 3, got 2"):
        integer(2, "d", 3)
    with pytest.raises(ContractError, match="grid must be >= 2, got 1"):
        integer(np.int64(1), "grid", 2, ContractError)
    assert integer(0, "seed", 0, ContractError) == 0


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
    y = partial_transpose(np.eye(4), [np.int64(2), 2], np.int32(1))
    assert np.array_equal(y, np.eye(4))


@pytest.mark.parametrize("call", [
    lambda: partial_transpose(np.eye(4), [2.0, 2], 0),
    lambda: partial_transpose(np.eye(4), [2, 2], 1.0),
    lambda: partial_transpose(np.eye(4), [2, 2], True),
    lambda: oracle.counterexample_vector(4, 3.0),
    lambda: (hh.extremals(3), hh.extremals(3.0)),
], ids=["dims-float", "which-float", "which-bool", "counterexample-d-float",
        "extremals-d-float-after-int"])
def test_integer_arguments_are_contract_errors(call):
    """Dimensions and factor indices go through the integer rule: a float
    or a bool is a ContractError, not numpy's TypeError or a silent 1."""
    with pytest.raises(ContractError):
        call()


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

