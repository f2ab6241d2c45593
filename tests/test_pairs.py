"""Witness rows as conjugate pairs: the invariants that make pairing exact,
and the paired stream against the unpaired reference, row by row."""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from covwit import quo, s3, werner3
from covwit.certificate import Certificate

W3, QUO = werner3.S3Coeffs, quo.QuoCoeffs
CLASSES = [(W3, d) for d in range(3, 9)] + [(QUO, d) for d in range(2, 9)]

unit = st.floats(-1.0, 1.0, allow_nan=False)
six = st.tuples(*[unit] * 6)


@settings(max_examples=200)
@given(case=st.sampled_from(CLASSES), A=st.floats(0.0, 1.0),
       C=unit, rt=st.floats(0.0, 1.0), other=st.floats(0.0, 1.0))
def test_the_root_enters_only_the_im_a123_slot(case, A, C, rt, other):
    """Every swept TUPLES entry is rt in slot 5, and its other slots do
    not read rt, so the -rt row is the +rt row with slot 5 negated."""
    cls, d = case
    for t in cls.types(d)[1]:
        raw = cls.TUPLES[t]
        plus, minus = raw(A, 1.0 - A, C, rt, d), raw(A, 1.0 - A, C, -rt, d)
        assert plus[5] == rt and minus[5] == -rt
        assert repr(plus[:5]) == repr(minus[:5])
        assert repr(plus[:5]) == repr(raw(A, 1.0 - A, C, other, d)[:5])


@settings(max_examples=300)
@given(case=st.sampled_from(CLASSES), t=six)
def test_margins_and_scale_read_im_a123_only_through_its_modulus(case, t):
    cls, d = case
    conj = t[:5] + (-t[5],)
    assert repr(cls.margins6(d, t)) == repr(cls.margins6(d, conj))
    assert repr(cls.scale6(d, t)) == repr(cls.scale6(d, conj))
    assert s3.positive6(cls, d, t) == s3.positive6(cls, d, conj)


# --------------------------------------------------- the unpaired reference

@functools.cache
def reference(cls, d, grid):
    """The catalogue as a list of (key, tuple6), one row per (point, sign,
    type), each realized and checked by itself, over points made here from
    s3.linspace."""
    fixed, types = cls.types(d)
    types = [t for t in types if cls.KIND[t] != "neither"]
    out = [(t, s3.realize(cls, t, 0.0, 0.0, 0.0, +1, d)) for t in fixed]
    for u in s3.linspace(-1.0, 1.0, grid):
        A, B = (1 + u) / 2, (1 - u) / 2
        cmax = math.sqrt(A * B)
        for C in s3.linspace(-cmax, cmax, grid):
            for sign in (+1, -1):
                for t in types:
                    out.append(((t, A, B, C, sign),
                                s3.realize(cls, t, A, B, C, sign, d)))
    return out


def reference_minima(c, rows):
    """Each row's least witness eigenvalue by the six-term sums."""
    alpha, omega = s3.branches(c)
    (a0, a1, a2, a3, a4, a5), (o0, o1, o2, o3, o4, o5) = alpha, omega
    out = []
    for key, (e, x, y, z, r, s) in rows:
        p = e * a0 + x * a1 + y * a2 + z * a3 + r * a4 + s * a5
        q = e * o0 + x * o1 + y * o2 + z * o3 + r * o4 + s * o5
        out.append((key, p if p < q else q))
    return out


GRIDS = (2, 3, 16, 64)
STREAMS = [(W3, 3), (W3, 4), (QUO, 2), (QUO, 3)]


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("cls, d", STREAMS)
def test_paired_rows_are_the_unpaired_rows(cls, d, grid):
    got = list(s3.rows(s3.catalogue(cls, d, grid)))
    assert repr(got) == repr(reference(cls, d, grid))


def sweep(c, items):
    cert = Certificate("pairs", c.d, {})
    out = s3.witness_sweep(cert, c, iter(items))
    return out, cert.checks


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(STREAMS), grid=st.sampled_from(GRIDS), v=six,
       real=st.booleans())
def test_paired_minima_are_the_unpaired_minima(case, grid, v, real):
    """Bit for bit and in order, and so is the sweep's report.  With
    im a_123 = 0 the two rows of a pair tie, and the +1 row stays first."""
    cls, d = case
    c = cls.from_tuple6(d, v[:5] + ((0.0,) if real else v[5:]))
    rows = reference(cls, d, grid)
    want = reference_minima(c, rows)
    got = list(s3.witness_minima(c, s3.catalogue(cls, d, grid)))
    assert repr(got) == repr(want)
    assert sweep(c, s3.catalogue(cls, d, grid)) == sweep(c, rows)
    if real:
        minima = iter(got)
        for item in s3.catalogue(cls, d, grid):
            if len(item) == 2:
                next(minima)
                continue
            k = len(item[3])
            plus = [next(minima) for _ in range(k)]
            minus = [next(minima) for _ in range(k)]
            assert [key[4] for key, _ in plus + minus] == [1] * k + [-1] * k
            assert [m for _, m in plus] == [m for _, m in minus]


def test_a_real_state_reports_the_plus_row_of_a_tied_pair():
    """The maximally mixed quo state at d = 2: every pair ties, and the
    least row is a +1 row."""
    c = QUO(2, 1 / 8, 0, 0, 0, 0)
    cert = quo.decide_quo(c, grid=4)
    assert cert.witnesses[0]["id"].endswith(",+1]")
    (_, worst, _), _ = sweep(c, reference(QUO, 2, 4))
    assert cert.witnesses == [worst]
