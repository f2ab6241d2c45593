"""Dense complex linear algebra: partial transposes, Hermitian and PSD
checks, the size cap on dense builds, and the boundary rule.

The boundary rule decides every signed margin, closed form or dense: a
margin at scale s (the largest |coefficient| in the family's independent
coordinates, or ||x||_F for a dense x) has the band PSD_TOL times s, no
floor, and reads "false" below -band, "boundary" within it and "true"
above it; "boundary" counts as passing.  A margin homogeneous of degree 1,
as an entry or eigenvalue is, gets the same verdict for c and 2^j c.
Equalities hold to EQ_TOL relative; certificates record both constants.
"""

import cmath
import math
import numbers
import operator

import numpy as np

MAX_DIM = 4096  # largest n of a dense n x n build; d^3 = 4096 at d = 16
MAX_INT = 2**53  # largest integer input: the largest exact float integer
PSD_TOL = 1e-9  # half-width of the boundary band per unit of scale
EQ_TOL = 1e-10  # relative bound of the trace and Hermiticity equalities


class CovwitError(Exception):
    pass


class DimensionError(CovwitError):
    pass


class ContractError(CovwitError):
    pass


class NumericalError(CovwitError):
    pass


class UnsupportedDimensionError(CovwitError):
    pass


def is_number(v):
    """True for int, float and complex values (numpy's too), not for bool."""
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


def finite_number(v, what, real=True):
    """The coefficient rule: v as a float (a complex if not real) if it is
    a finite number, numpy's and Fraction included, bool not, with zero
    imaginary part if real; else ContractError.  A finite float returns
    at once, the value the general path gives (-0.0 included)."""
    if type(v) is float and math.isfinite(v):
        return v if real else complex(v)
    try:
        z = complex(v) if is_number(v) else None
    except (TypeError, ValueError, OverflowError):
        z = None
    if z is None or not cmath.isfinite(z) or (real and z.imag != 0):
        raise ContractError(f"{what} must be a finite "
                            f"{'real ' if real else ''}number, got {v!r}")
    return z.real if real else z


def integer(v, what, least, error=DimensionError):
    """The integer rule: v as an int if it is an int or a numpy integer
    (operator.index), bool not, else ContractError; below least or above
    MAX_INT, error."""
    try:
        i = None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        i = None
    if i is None:
        raise ContractError(f"{what} must be an integer, got {v!r}")
    if i < least:
        raise error(f"{what} must be >= {least}, got {i}")
    if i > MAX_INT:
        raise error(f"{what} must be <= 2**53, got {i}")
    return i


def check_dense(n):
    """Refuse a dense n x n build above MAX_DIM before it allocates."""
    if n > MAX_DIM:
        raise DimensionError(
            f"dense {n}x{n} matrix exceeds the size cap {MAX_DIM}")


def asmatrix(x):
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ContractError("matrix contains NaN/Inf entries")
    return m


def identity(d):
    return np.eye(d, dtype=complex)


def flip(d):
    """The flip (swap) operator F = sum_ij e_ij (x) e_ji on C^d (x) C^d."""
    f = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def partial_transpose(x, dims, which):
    """Transpose the selected tensor factor of a square matrix.

    dims is the ordered list of subsystem dimensions; which is the 0-based
    factor index.
    """
    x = asmatrix(x)
    dims = [integer(n, "subsystem dimension", 1) for n in dims]
    if x.shape != (int(np.prod(dims)),) * 2:
        raise DimensionError(f"matrix shape {x.shape} inconsistent with dims {dims}")
    k = len(dims)
    which = integer(which, "factor index", 0)
    if which >= k:
        raise DimensionError(f"factor index {which} out of range for {k} factors")
    t = x.reshape(dims + dims)
    t = np.swapaxes(t, which, k + which)
    n = x.shape[0]
    return np.ascontiguousarray(t.reshape(n, n))


def max_abs(x):
    x = np.asarray(x)
    return float(np.abs(x).max()) if x.size else 0.0


def check_hermitian(x):
    """Raise ContractError unless |x - x*| <= EQ_TOL |x|, return (x+x*)/2."""
    x = asmatrix(x)
    if x.shape[0] != x.shape[1]:
        raise DimensionError("Hermitian check requires a square matrix")
    dev = max_abs(x - x.conj().T)
    if dev > EQ_TOL * max_abs(x):
        raise ContractError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return (x + x.conj().T) / 2.0


def classify(margin, scale):
    """The verdict "false", "boundary" or "true" of a margin; a margin or
    scale that is not finite comes from an overflow: NumericalError."""
    if not (cmath.isfinite(margin) and cmath.isfinite(scale)):
        raise NumericalError(f"margin {margin} at scale {scale} is not finite")
    b = PSD_TOL * scale
    if margin < -b:
        return "false"
    return "boundary" if margin <= b else "true"


def least(values):
    """min of a sequence of margins; NumericalError if one is NaN, which
    min would keep or drop by where it sits."""
    if cmath.isnan(sum(values)):
        raise NumericalError("a margin is NaN: its closed form overflowed")
    return min(values)


def is_psd(x):
    """PSD verdict and evidence: (min eig passes at scale ||x||_F, min eig)."""
    x = asmatrix(x)
    lo = float(np.linalg.eigvalsh(check_hermitian(x))[0])
    return classify(lo, float(np.linalg.norm(x))) != "false", lo
