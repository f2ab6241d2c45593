"""The witness catalogue checked once per (class, d, grid), never skipping
a row, and werner3's Type III row at its exact optimum over the whole
parameter sphere."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from covwit import quo, s3, werner3
from covwit.linalg import ContractError, NumericalError

W3, QUO = werner3.S3Coeffs, quo.QuoCoeffs


@pytest.fixture
def fresh(monkeypatch):
    """An empty record of checked (class, d, grid), restored afterwards."""
    monkeypatch.setattr(s3, "_CHECKED", set())
    return s3._CHECKED


def digest(rows):
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


@pytest.mark.parametrize("grid", [2, 3, 16, 64])
@pytest.mark.parametrize("cls, d", [(W3, 3), (W3, 4), (QUO, 2), (QUO, 3)])
def test_warm_rows_are_the_cold_rows_byte_for_byte(fresh, cls, d, grid):
    cold = digest(s3.catalogue(cls, d, grid))
    assert fresh == {(cls, d, grid)}
    assert digest(s3.catalogue(cls, d, grid)) == cold
    assert len(fresh) == 1


def full_count(cls, d, grid):
    """Rows of a catalogue that skips none: each fixed type once, each
    decomposable swept type twice (two signs) per grid point."""
    fixed, swept = cls.types(d)
    return len(fixed) + 2 * grid * grid * sum(cls.KIND[t] != "neither"
                                              for t in swept)


@pytest.mark.parametrize("grid", [16, 64])
@pytest.mark.parametrize("d", [10**6, 10**9, 2**53])
@pytest.mark.parametrize("cls", [W3, QUO])
def test_no_row_is_refused_at_large_d(fresh, cls, d, grid):
    """The degree-2 determinant slack refused quo Type III/IV rows from
    d = 10^6 on; the block's least eigenvalue refuses none."""
    rows = list(s3.rows(s3.catalogue(cls, d, grid)))
    assert len(rows) == full_count(cls, d, grid)
    assert fresh == {(cls, d, grid)}


@pytest.mark.parametrize("key", [
    ("III", 0.0625, 0.9375, 0.0, +1), ("III", 0.0625, 0.9375, 0.0, -1),
    ("IV", 0.0625, 0.9375, 0.0, +1), ("IV", 0.9375, 0.0625, 0.0, +1),
    ("IV", 14 / 15, 1 / 15, 0.2, -1)])
def test_extremal_quo_accepts_type_iii_and_iv_at_d_1e9(key):
    c = quo.extremal_quo(*key, 10**9)
    assert (s3.is_cp if key[0] == "III" else s3.is_ccp)(c)


def refusing(monkeypatch, cls, d, key=None, exc=None):
    """Patch cls.margins6 to refuse the grid row key (or raise exc there),
    no row without a key; returns the list of tuples margins6 is called
    on."""
    target = None if key is None else s3.realize(cls, *key, d)
    margins6, calls = cls.margins6, []

    def patched(d, t):
        calls.append(t)
        if t == target:
            if exc is not None:
                raise exc
            return (-1.0,) * 6
        return margins6(d, t)

    monkeypatch.setattr(cls, "margins6", staticmethod(patched))
    return calls


def checked_pass(calls, cls, d, grid, match):
    """Consume a catalogue pass that must stop with a NumericalError
    matching match; returns the rows it yielded first, after asserting
    that each was checked before it was yielded, in order, and that one
    more check, the refused one, came after them."""
    items = []
    with pytest.raises(NumericalError, match=match):
        for item in s3.catalogue(cls, d, grid):
            items.append(item)
    checked = [row for key, row in s3.rows(items) if key[-1] != -1]
    assert calls[:-1] == checked
    return items


def test_a_refused_row_is_a_numerical_error_that_names_it(fresh,
                                                           monkeypatch):
    """The pass yields the rows before the refused one, each checked, then
    stops at it with an error that names it; nothing is recorded, so the
    next call checks again."""
    grid, key = 3, ("II", 0.5, 0.5, 0.0, 1)  # the one row of its tuple
    assert list(s3.grid_points(grid)).index(key[1:]) == 2 * 4
    calls = refusing(monkeypatch, W3, 3, key)
    for _ in range(2):
        calls.clear()
        items = checked_pass(calls, W3, 3, grid,
                             re.escape(s3.witness_id(key)))
        assert len(items) == 1 + 4 and len(calls) == 1 + 5  # I, 5 points
        assert fresh == set()


def test_each_row_is_checked_once(fresh, monkeypatch):
    """The first call checks the fixed row and each pair's +1 row, never
    the -1 row; a later call checks none and makes the same rows."""
    calls = refusing(monkeypatch, W3, 3)
    cold = list(s3.rows(s3.catalogue(W3, 3, 3)))
    assert len(cold) == full_count(W3, 3, 3) == 19
    assert len(calls) == 1 + 9 and fresh == {(W3, 3, 3)}
    calls.clear()
    assert list(s3.rows(s3.catalogue(W3, 3, 3))) == cold and not calls


def test_a_stopped_pass_records_nothing(fresh, monkeypatch):
    """An overflow in the check of the last pair stops the pass after
    every earlier row, each checked; nothing is recorded, and the next
    call checks again.  A pass its consumer stops records nothing
    either."""
    key = ("II", *list(s3.grid_points(2))[-2])  # the last pair's +1 row
    assert key[-1] == 1
    calls = refusing(monkeypatch, W3, 3, key, OverflowError("boom"))
    for _ in range(2):
        calls.clear()
        items = checked_pass(calls, W3, 3, 2, "overflow")
        # I and the pole (0, 1, 0) twice; the check overflows at (1, 0, 0)
        assert len(items) == 1 + 2 and fresh == set()
    items = s3.catalogue(W3, 3, 2)
    next(items)  # the row of I, which passes
    items.close()
    assert fresh == set()


@pytest.mark.parametrize("grid", [2, 3, 16, 64])
def test_the_grid_table_holds_the_linspace_points(grid):
    """One (A, B, C, sqrt(AB - C^2)) per point, made once per grid."""
    want = []
    for u in s3.linspace(-1.0, 1.0, grid):
        A, B = (1 + u) / 2, (1 - u) / 2
        cmax = math.sqrt(A * B)
        want += [(A, B, C, math.sqrt(max(A * B - C * C, 0.0)))
                 for C in s3.linspace(-cmax, cmax, grid)]
    table = s3.grid_table(grid)
    assert repr(table.tolist()) == repr([x for p in want for x in p])
    assert s3.grid_table(grid) is table


def test_the_grid_256_table_takes_under_3_mb(monkeypatch):
    monkeypatch.setattr(s3, "_GRIDS", {})
    tracemalloc.start()
    try:
        table = s3.grid_table(s3.MAX_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) * table.itemsize == 32 * s3.MAX_GRID**2  # 2 MB
    assert peak < 3 * 2**20


def test_the_record_has_no_key_on_coefficients(fresh):
    for t in np.linspace(0.1, 6.0, 50):
        werner3.detect_entanglement_w3(werner3.rho_t_coeffs(3, t), grid=4)
    assert fresh == {(W3, 3, 4)}


def test_an_exact_row_realize_refuses_is_a_numerical_error(monkeypatch):
    realize = s3.realize

    def refuse_iii(cls, t, A, B, *args):
        if t == "III" and B != 0.0:  # L0 is Type III at B = 0
            raise ContractError("refused")
        return realize(cls, t, A, B, *args)

    monkeypatch.setattr(s3, "realize", refuse_iii)
    with pytest.raises(NumericalError):
        werner3.detect_entanglement_w3(werner3.rho_t_coeffs(3, 1.0), grid=2)


# ------------------------------------------------------------ exact optimum

def sphere_rows(d, x):
    """Normalized Type III tuple6 at the sphere points x (n x 3), as
    arrays, from TUPLES directly."""
    A, B, C, rt = 0.5 + x[:, 0], 0.5 - x[:, 0], x[:, 1], x[:, 2]
    t = np.array([np.broadcast_to(np.asarray(v, float), A.shape)
                  for v in W3.TUPLES["III"](A, B, C, rt, d)])
    return t / (d * d * t[0] + d * (t[1] + t[2] + t[3]) + 2 * t[4])


def grid_sphere(grid):
    """The (A - 1/2, C, +-sqrt(AB - C^2)) points of s3.grid_points."""
    return np.array([(A - 0.5, C, sign * math.sqrt(max(A * B - C * C, 0.0)))
                     for A, B, C, sign in s3.grid_points(grid)])


GRID256 = grid_sphere(256)


def sweep_minima(c, t):
    alpha, omega = (np.array(v) for v in s3.branches(c))
    return np.minimum(alpha @ t, omega @ t)


@settings(max_examples=40)
@given(d=st.integers(3, 8),
       v=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 6))
def test_the_exact_minimum_is_least_and_attained(d, v):
    """Below every grid-256 Type III row and every sampled sphere point
    (random, and a ring at 1e-3 around the arg-min), and attained by the
    realized arg-min row the sweep takes."""
    c = W3.from_tuple6(d, v)
    scale = math.sqrt(sum(k * t for k, t in zip(s3.gram6(c),
                                                  c.as_tuple6())))
    assume(scale > 1e-150)
    lam, point = s3.exact_minimum(c, "III")
    key, row = next(s3.exact_rows(c))
    assert key == ("III", *point)
    (_, m), = s3.witness_minima(c, [(key, row)])
    assert abs(m - lam) <= 1e-12 * scale
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4096, 3))
    A, _, C, sign = point
    star = np.array([A - 0.5, C, sign * math.sqrt(max(0.25 - (A - 0.5)**2
                                                      - C * C, 0.0))])
    ring = star + 1e-3 * rng.standard_normal((64, 3))
    x = np.vstack([x, ring])
    x /= 2 * np.linalg.norm(x, axis=1)[:, None]
    for pts in (GRID256, x):
        assert sweep_minima(c, sphere_rows(d, pts)).min() >= (
            lam - 1e-12 * scale)


def test_grid_256_misses_the_optimum_near_a_pole():
    """rho_t(3, 1): the optimum sits at A = 0.995, where C spans
    +-sqrt(AB) and the (A - B, C) grid is coarse, so grid 256 stays 1.5e-6
    above it; the exact row is ~1e-3 relatively lower."""
    c = werner3.rho_t_coeffs(3, 1.0)
    lam, (A, *_) = s3.exact_minimum(c, "III")
    gap = sweep_minima(c, sphere_rows(3, GRID256)).min() - lam
    assert A > 0.99 and 1e-6 < gap < 2e-6


def test_the_type_iii_normalizer_is_at_least_d_minus_1():
    """D(x) = d^2 (1 + 2C)/2 + d (1 - 2C)/2 - 1 on the sphere: least,
    d - 1, at C = -1/2."""
    x = np.random.default_rng(0).standard_normal((1000, 3))
    x /= 2 * np.linalg.norm(x, axis=1)[:, None]
    for d in range(3, 9):
        A, B, C, rt = 0.5 + x[:, 0], 0.5 - x[:, 0], x[:, 1], x[:, 2]
        ae, a12, a13, a23, r, _ = W3.TUPLES["III"](A, B, C, rt, d)
        norm = d * d * ae + d * (a12 + a13 + a23) + 2 * r
        assert norm.min() >= d - 1
        ae, a12, a13, a23, r, _ = W3.TUPLES["III"](0.5, 0.5, -0.5, 0.0, d)
        assert d * d * ae + d * (a12 + a13 + a23) + 2 * r == d - 1


# an A-BC-PPT werner3 state that L0 and every grid-2 row miss
PPT_ENTANGLED = ("166523776510/5029999975503,1936168780/186296295389,"
                 "-15874292672/1676666658501,2521386712/558888886167,"
                 "3552377465/372592590778,0")


def test_the_verdict_no_longer_depends_on_the_grid():
    from fractions import Fraction

    c = W3.from_tuple6(3, [Fraction(v) for v in PPT_ENTANGLED.split(",")])
    assert all(s3.ppt(c).values()) is False and s3.ppt(c)["A-BC"]
    assert min(m for _, m in s3.witness_minima(
        c, werner3.witness_rows(3, 2))) > 0
    key, row = next(s3.exact_rows(c))
    (_, m), = s3.witness_minima(c, [(key, row)])
    for grid in (2, 16, 64):
        cert = werner3.detect_entanglement_w3(c, grid=grid)
        assert cert.verdict == "ENTANGLED"
        assert cert.witnesses[1] == {"id": s3.witness_id(key), "min_eig": m}


# ------------------------------------------------------------ witness ids

ID = re.compile(r"(.+)\[(.+),(.+),(.+),([+-]1)\]")


def realize_id(cls, d, text):
    """The row a swept witness id names, made by realize from the id."""
    t, A, B, C, sign = ID.fullmatch(text).groups()
    return s3.realize(cls, t, float(A), float(B), float(C), int(sign), d)


@settings(max_examples=200)
@given(d=st.integers(3, 8),
       v=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 6),
       real=st.booleans())
def test_an_exact_row_id_names_its_row(d, v, real):
    """With a_123 real the arg-min lies on AB = C^2, where a rounded id
    would fall outside the parameter set."""
    c = W3.from_tuple6(d, v[:5] + ((0.0,) if real else v[5:]))
    scale = math.sqrt(sum(k * t for k, t in zip(s3.gram6(c),
                                                  c.as_tuple6())))
    assume(scale > 1e-150)
    key, row = next(s3.exact_rows(c))
    assert repr(realize_id(W3, d, s3.witness_id(key))) == repr(row)


def test_the_ppt_entangled_state_names_its_exact_row():
    from fractions import Fraction

    c = W3.from_tuple6(3, [Fraction(v) for v in PPT_ENTANGLED.split(",")])
    cert = werner3.detect_entanglement_w3(c, grid=2)
    key, row = next(s3.exact_rows(c))
    assert cert.witnesses[1]["id"] == s3.witness_id(key)
    assert repr(realize_id(W3, 3, cert.witnesses[1]["id"])) == repr(row)


@pytest.mark.parametrize("grid", [2, 3, 16, 64])
@pytest.mark.parametrize("listing, d", [
    (werner3._witness_coeff_grid, 3), (werner3._witness_coeff_grid, 4),
    (quo._witness_rows, 2), (quo._witness_rows, 3)])
def test_every_grid_id_names_its_row(listing, d, grid):
    cls = W3 if listing is werner3._witness_coeff_grid else QUO
    swept = [(i, t) for i, t in listing(d, grid) if "[" in i]
    assert len(swept) >= 8
    for i, t in swept:
        assert repr(realize_id(cls, d, i)) == repr(t), i
