"""Each extremal type's KIND ("CP", "CCP" or "neither") over its whole
parameter sphere.

CP is X >= 0 and CCP is X^{T_A} >= 0 for the type's invariant matrix X.
For werner3 (the V basis) that is F_iso(X) and G_iso(X); for quo (the T
basis, T_sigma = V_sigma^{T_B}) it is G_iso of X relabeled by (12) and by
(13).  With A + B = 1 and rt^2 = AB - C^2, |C| <= 1/2:

- werner3 I = (1, -1, -1, -1, 1, 0) has F_iso s1 = 0, s2 = 6 and a zero
  block: CP.
- werner3 II = (0, A, B, 0, C, rt) has G_iso s1 = s2 = 0 and the rank-1
  block with diagonal (1 + 2C)(d + 1)/2, (1 - 2C)(d - 1)/2 and
  |b01|^2 = (d^2 - 1)(1 - 4C^2)/4, the product of the two: CCP.
- werner3 III has F_iso s2 = 2C - 1 and G_iso b00 = -(1 + 2C)(d - 1)/2:
  neither CP nor CCP for |C| < 1/2.  At the poles it is decomposable:
  CP at C = 1/2 and CCP at C = -1/2 (A = B = 1/2 there).
- quo I and II share the relabeled tuple (d - 1, -1, -1, 1 - d, 1, 0):
  s1 = 0, s2 = 2(d - 1), a zero block; CP and CCP respectively.
- quo III = (0, 1 - 2C, 0, B, C - B, rt) has a CP block of rank 1, with
  diagonal A(d + 1)/2 and (d - 1)(4 - 3A - 4C)/2, both >= 0 because
  4C <= 4 sqrt(A(1 - A)) <= 4 - 3A iff (5A - 4)^2 >= 0; s1 = s2 = 0.
  quo IV is its mirror image (a_12 <-> a_13): CCP.  I' and II' take the
  III and IV tuples at d = 2.

The exact test walks rational points of the sphere in Fraction arithmetic
(every value below is rational: G_iso's |b01|^2 carries y^2 = (d^2-1)/4,
and F_iso's block has the eigenvalues of a rational one); the float test
asks s3.is_cp and s3.is_ccp at sphere points hypothesis draws.  test_criterion_09 and
selftest's quo-extremals-cp-or-ccp check the same claims against dense
PSD tests.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from covwit import quo, s3, werner3

W3, QUO = werner3.S3Coeffs, quo.QuoCoeffs
CASES = [(W3, d) for d in (3, 4, 5, 8)] + [(QUO, d) for d in (2, 3, 4, 8)]


def g_iso(d, t):
    """(s1, s2, b00, b11, |b01|^2) of G_iso, exactly."""
    ae, a12, a13, a23, r, s = t
    return (ae + a23, ae - a23,
            ae + a23 + Fraction(d + 1, 2) * (a12 + a13 + 2 * r),
            ae - a23 + Fraction(d - 1, 2) * (a12 + a13 - 2 * r),
            Fraction(d * d - 1, 4) * ((a12 - a13) ** 2 + 4 * s * s))


def f_iso(d, t):
    """F_iso's block is [[h + sqrt3 s, b01], [conj b01, h - sqrt3 s]], h =
    a_e - re a_123, with the eigenvalues of [[h, w], [w, h]], w^2 = 3 s^2 +
    |b01|^2: (s1, s2, h, h, w^2), exactly."""
    ae, a12, a13, a23, r, s = t
    return (ae + a12 + a13 + a23 + 2 * r, ae - (a12 + a13 + a23) + 2 * r,
            ae - r, ae - r,
            3 * s * s + a12 * a12 + a13 * a13 + a23 * a23 - a12 * a13
            - a13 * a23 - a12 * a23)


def relabel(t, tau):
    ae, a12, a13, a23, r, s = t
    return ((ae, a12, a23, a13, r, -s) if tau == "12"
            else (ae, a23, a13, a12, r, -s))


def blocks(cls, d, t):
    """(CP block values, CCP block values) of the type tuple t."""
    if cls is W3:
        return f_iso(d, t), g_iso(d, t)
    return g_iso(d, relabel(t, "12")), g_iso(d, relabel(t, "13"))


def psd(d, v):
    """PSD-ness of the block form; s2 has multiplicity 0 at d = 2."""
    s1, s2, b00, b11, b01sq = v
    return (s1 >= 0 and (s2 >= 0 or d == 2) and b00 >= 0 and b11 >= 0
            and b00 * b11 >= b01sq)


def rational_sphere():
    """Points x = (a, b, c)/(2h) with a^2 + b^2 + c^2 = h^2, from the
    quaternion parametrization of Pythagorean quadruples."""
    pts = set()
    for m, n, p, q in product(range(-3, 4), repeat=4):
        h = m * m + n * n + p * p + q * q
        if h:
            pts.add((Fraction(m * m + n * n - p * p - q * q, 2 * h),
                     Fraction(m * q + n * p, h), Fraction(n * q - m * p, h)))
    return sorted(pts)


SPHERE = rational_sphere()


def raw(cls, t, d, x=(0, 0, 0)):
    """The raw tuple6 of type t at the sphere point x, in Fractions; the
    float constants of TUPLES are small integers, exact in binary."""
    A, B = Fraction(1, 2) + x[0], Fraction(1, 2) - x[0]
    return tuple(Fraction(v) for v in cls.TUPLES[t](A, B, x[1], x[2], d))


@pytest.mark.parametrize("cls, d", CASES)
def test_kinds_hold_exactly_at_rational_sphere_points(cls, d):
    assert len(SPHERE) == 390
    fixed, swept = cls.types(d)
    for t in fixed:
        cp, ccp = blocks(cls, d, raw(cls, t, d))
        assert cls.KIND[t] in ("CP", "CCP")
        assert psd(d, cp if cls.KIND[t] == "CP" else ccp)
    for t in swept:
        for x in SPHERE:
            assert sum(v * v for v in x) == Fraction(1, 4)
            cp, ccp = blocks(cls, d, raw(cls, t, d, x))
            if cls.KIND[t] == "neither":
                if abs(x[1]) < Fraction(1, 2):
                    assert not psd(d, cp) and cp[1] == 2 * x[1] - 1
                    assert not psd(d, ccp)
                    assert ccp[2] == -(1 + 2 * x[1]) * Fraction(d - 1, 2)
                continue
            block = cp if cls.KIND[t] == "CP" else ccp
            assert psd(d, block)
            assert block[2] * block[3] == block[4]  # rank 1


def test_werner3_type_iii_is_decomposable_only_at_its_poles():
    for d in (3, 4, 8):
        top = raw(W3, "III", d, (0, Fraction(1, 2), 0))
        bottom = raw(W3, "III", d, (0, Fraction(-1, 2), 0))
        assert psd(d, f_iso(d, top)) and not psd(d, g_iso(d, top))
        assert psd(d, g_iso(d, bottom)) and not psd(d, f_iso(d, bottom))


@settings(max_examples=150)
@given(case=st.sampled_from(CASES),
       v=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3))
def test_kinds_hold_at_float_sphere_points(case, v):
    cls, d = case
    n = sum(x * x for x in v) ** 0.5
    assume(n > 1e-3)
    x = [c / (2 * n) for c in v]
    A, B, C = 0.5 + x[0], 0.5 - x[0], x[1]
    for t in cls.types(d)[1]:
        ex = s3.extremal(cls, t, A, B, C, 1 if x[2] >= 0 else -1, d)
        kind = cls.KIND[t]
        if kind == "neither":
            if abs(C) < 0.5 - 1e-6:
                assert not s3.is_cp(ex) and not s3.is_ccp(ex)
        else:
            assert (s3.is_cp if kind == "CP" else s3.is_ccp)(ex)
