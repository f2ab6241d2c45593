"""Shared core of the two S3-indexed families.

U(x)U(x)U-invariant operators (werner3) are spanned by the six permutation
operators V_sigma, U(x)Ubar(x)U-invariant ones (quo) by T_sigma =
V_sigma^{T_B}.  A family is data on its coefficient class: its basis
(TRANSPOSED), positivity margins (margins6) and extremal types (TUPLES,
types, and KIND: CP, CCP or neither).  This module answers the rest once
for both: every PSD question (positivity through L(e_11)'s blocks, the
rest through the two block forms of the V_sigma algebra that block(c, cut)
picks, a 2x2 block by its least eigenvalue, least2), the extremal maps,
the witness catalogue (the decomposable types over one table of grid
points per grid, each point's rows as conjugate pairs, checked where the
first pass makes them, a refused row a NumericalError), the exact row of
each type that is neither, and the one-pass sweep, which shares five of a
pair's six products between its two rows.  A swept witness's id prints A,
B and C in full (repr), so it names the row realize makes.
"""

import cmath
import math
from array import array
from dataclasses import dataclass
from itertools import chain

from .certificate import Certificate
from .linalg import (EQ_TOL, ContractError, NumericalError, check_dense,
                     classify, finite_number, integer, least)

GRID = 16  # default of detect_entanglement_w3 and decide_quo, so of certify
MAX_GRID = 256  # grid_size's cap, also on sweep hh; ~4 grid^2 catalogue rows

PERMS = ("e", "12", "13", "23", "123", "132")
# CYCLES[s][t] is the number of cycles of PERMS[s] o PERMS[t], so that
# Tr(X_s X_t) = d^CYCLES[s][t] for X = V, and for X = T as well because
# partial transposition preserves Tr(XY).
CYCLES = ((3, 2, 2, 2, 1, 1), (2, 3, 1, 1, 2, 2), (2, 1, 3, 1, 2, 2),
          (2, 1, 1, 3, 2, 2), (1, 2, 2, 2, 1, 3), (1, 2, 2, 2, 3, 1))
CUTS = ("A-BC", "B-AC", "C-AB")  # the bipartitions; the first factor is cut
OMEGA = cmath.exp(2j * cmath.pi / 3)


@dataclass(frozen=True)
class Coeffs:
    """Coefficients over a six-operator S3-indexed basis with the Hermitian
    reality pattern: a_e, a_12, a_13, a_23 real (stored as float), a_123
    complex, a_132 = conj(a_123) (never stored), d an int.  Subclasses set
    MIN_D, the family's least d, TRANSPOSED, the factors its basis
    transposes off V_sigma, margins6(d, t), its positivity margins (L(e_11)'s
    block entries, the last its 2x2 block's least2) on a tuple6 in the
    as_tuple6 layout, and TUPLES and types(d), its extremal types."""

    d: int
    a_e: float
    a_12: float
    a_13: float
    a_23: float
    a_123: complex

    def __post_init__(self):
        object.__setattr__(self, "d", integer(self.d, "d", self.MIN_D))
        for name in ("a_e", "a_12", "a_13", "a_23"):
            object.__setattr__(self, name,
                               finite_number(getattr(self, name), name))
        object.__setattr__(self, "a_123",
                           finite_number(self.a_123, "a_123", real=False))

    @classmethod
    def from_tuple6(cls, d, v):
        """From exactly six values (a_e, a_12, a_13, a_23, re a_123,
        im a_123); anything else is a ContractError."""
        try:
            ae, a12, a13, a23, re, im = v
        except (TypeError, ValueError):
            raise ContractError(f"need six coefficients, got {v!r}") from None
        return cls(d, ae, a12, a13, a23, complex(
            finite_number(re, "re_123"), finite_number(im, "im_123")))

    @property
    def r(self):
        return self.a_123.real

    @property
    def s(self):
        return self.a_123.imag

    def as_tuple6(self):
        return (self.a_e, self.a_12, self.a_13, self.a_23, self.r, self.s)

    def vector(self):
        """The six coefficients ordered as PERMS."""
        q = self.a_123
        return (self.a_e, self.a_12, self.a_13, self.a_23, q, q.conjugate())

    @staticmethod
    def scale6(d, t):
        """The boundary-rule scale of a tuple6: the largest |a_sigma|."""
        return max(abs(t[0]), abs(t[1]), abs(t[2]), abs(t[3]),
                   abs(complex(t[4], t[5])))

    def scale_by(self, f):
        return type(self)(self.d, f * self.a_e, f * self.a_12, f * self.a_13,
                          f * self.a_23, f * self.a_123)

    def trace(self):
        """Trace of sum_sigma a_sigma X_sigma on (C^d)^3; the same for the
        V and the T basis."""
        d = self.d
        return (d**3 * self.a_e + d**2 * (self.a_12 + self.a_13 + self.a_23)
                + 2 * d * self.r)


@dataclass(frozen=True)
class Table2Block:
    """Image of an invariant operator in the C (+) C (+) M_2(C) picture:
    the operator's spectrum is s1, s2 and the two eigenvalues of the
    Hermitian block [[b00, b01], [conj(b01), b11]], with multiplicities
    mult = (m1, m2, m_block) each, m1 + m2 + 2 m_block = d^3."""

    s1: float
    s2: float
    b00: float
    b11: float
    b01: complex
    mult: tuple

    def min_margin(self):
        """The least eigenvalue of the operator, of nonzero multiplicity."""
        v = (self.s1, self.s2, least2(self.b00, self.b11, self.b01))
        return least([x for x, m in zip(v, self.mult) if m])


def least2(b00, b11, b01):
    """The least eigenvalue of the Hermitian block [[b00, b01],
    [conj(b01), b11]]: (b00 + b11)/2 - hypot((b00 - b11)/2, |b01|)."""
    return (b00 + b11) / 2 - math.hypot((b00 - b11) / 2, abs(b01))


def F_iso(c: Coeffs) -> Table2Block:
    """Block image of X = sum a_sigma V_sigma: s1 on Sym^3 C^d, s2 on
    Lambda^3 C^d, the block on the two copies of the mixed irrep."""
    d = c.d
    ae, a12, a13, a23, r, _ = c.as_tuple6()
    q = c.a_123
    qb = q.conjugate()
    w, wb = OMEGA, OMEGA.conjugate()
    return Table2Block(ae + a12 + a13 + a23 + 2 * r,
                       ae - (a12 + a13 + a23) + 2 * r,
                       (ae + wb * q + w * qb).real,
                       (ae + w * q + wb * qb).real,
                       wb * a12 + w * a13 + a23,
                       ((d + 2) * (d + 1) * d // 6, d * (d - 1) * (d - 2) // 6,
                        d * (d * d - 1) // 3))


def G_iso(c: Coeffs) -> Table2Block:
    """Block image of X^{T_A}: s1 and s2 on the parts of Cbar^d (x)
    Sym^2 C^d and Cbar^d (x) Lambda^2 C^d beyond one copy of C^d each, the
    block on those two copies."""
    d = c.d
    ae, a12, a13, a23, r, s = c.as_tuple6()
    y = math.sqrt(d * d - 1.0) / 2
    return Table2Block(ae + a23, ae - a23,
                       ae + a23 + (d + 1) / 2 * (a12 + a13 + 2 * r),
                       ae - a23 + (d - 1) / 2 * (a12 + a13 - 2 * r),
                       y * complex(a12 - a13, -2 * s),
                       (d * (d - 1) * (d + 2) // 2, d * (d + 1) * (d - 2) // 2,
                        d))


def relabel(c: Coeffs, tau):
    """Coefficients of X_tau X X_tau for X = V and T alike: b_sigma =
    a_{tau sigma tau}, in the class of c."""
    q = c.a_123
    cls = type(c)
    if tau == "12":
        return cls(c.d, c.a_e, c.a_12, c.a_23, c.a_13, q.conjugate())
    if tau == "13":
        return cls(c.d, c.a_e, c.a_23, c.a_13, c.a_12, q.conjugate())
    if tau == "23":
        return cls(c.d, c.a_e, c.a_13, c.a_12, c.a_23, q.conjugate())
    raise ContractError(f"relabel expects a transposition, got {tau!r}")


def block(c: Coeffs, cut) -> Table2Block:
    """The block form of X^{T_cut}, X = sum a_sigma X_sigma and cut a
    subset of "ABC".  In the V basis that is the transpose of the factors
    cut ^ c.TRANSPOSED, or of their complement, as a global transpose keeps
    the spectrum; none is F_iso, one is G_iso after moving it to A."""
    left = set(cut) ^ set(c.TRANSPOSED)
    if len(left) >= 2:
        left = set("ABC") - left
    if not left:
        return F_iso(c)
    (f,) = left
    return G_iso(c if f == "A" else relabel(c, "12" if f == "B" else "13"))


def classify_cut(c: Coeffs, cut):
    """(verdict, least eigenvalue) of X^{T_cut} by the boundary rule at
    c's scale."""
    try:
        m, scale = block(c, cut).min_margin(), c.scale6(c.d, c.as_tuple6())
    except OverflowError as exc:
        raise NumericalError(f"the block form of cut {cut!r} overflows: {exc}")
    return classify(m, scale), m


def is_positive(c: Coeffs):
    """Positivity of the map, by c's positivity margins."""
    return positive6(type(c), c.d, c.as_tuple6())


def is_cp(c: Coeffs):
    """CP of the map / PSD-ness of its invariant matrix."""
    return classify_cut(c, "")[0] != "false"


def is_ccp(c: Coeffs):
    """CCP of the map / PSD-ness of the A-partial-transposed matrix."""
    return classify_cut(c, "A")[0] != "false"


def ppt(c: Coeffs):
    """Partial-transpose verdicts of the state, one per bipartition."""
    return {part: classify_cut(c, part[0])[0] != "false"
            for part in CUTS}


def positive6(cls, d, t):
    """classify of cls's least positivity margin lo on a tuple6 at
    max(scale6, max |margin|) = max(scale6, max m, -lo), L(e_11)'s own scale
    (its block entries are the margins); NaN or inf: NumericalError."""
    try:
        m, scale = cls.margins6(d, t), cls.scale6(d, t)
    except OverflowError as exc:
        raise NumericalError(f"the positivity margins overflow: {exc}")
    lo = least(m)
    return classify(lo, max(scale, max(m), -lo)) != "false"


def normalized(cls, type_name, A, B, C, rt, d):
    """The tuple6 of cls's type_name at (A, B, C) and the root rt = +-sqrt(AB
    - C^2), normalized to trace preservation, unchecked: realize's
    arithmetic, and the catalogue's once per conjugate pair.  A normalizer
    that is not > 0 (NaN too) is refused, with no absolute threshold, so a
    map normalizes alike at every scale."""
    ae, a12, a13, a23, r, s = cls.TUPLES[type_name](A, B, C, rt, d)
    norm = d * d * ae + d * (a12 + a13 + a23) + 2 * r
    if not norm > 0.0:
        raise ContractError(
            f"degenerate trace-preservation normalizer for Type {type_name} "
            f"params {(A, B, C)}")
    f = 1.0 / norm
    return (f * ae, f * a12, f * a13, f * a23, f * r, f * s)


def realize(cls, type_name, A, B, C, sign, d):
    """normalized(...) at the root of that sign, and a ContractError unless
    it passes cls's margins6.  The inputs are taken as checked, as
    extremal's, grid_table's and exact_minimum's are."""
    root = math.sqrt(max(A * B - C * C, 0.0))
    t = normalized(cls, type_name, A, B, C, root if sign >= 0 else -root, d)
    if not positive6(cls, d, t):
        raise ContractError(
            f"Type {type_name} tuple failed the positivity inequalities")
    return t


def extremal(cls, type_name, A=0.0, B=0.0, C=0.0, sign=+1, d=3):
    """The extremal trace-preserving positive covariant map of type_name,
    one of cls.types(d), as a cls.  The swept types need A, B >= 0, A + B
    > 0 and AB >= C^2, read at A + B = 1 by the boundary rule at the
    disk's squared radius 1/4 (|C| > 1 is refused before C^2 can
    overflow), and an accepted |C| > sqrt(AB) is realized on the disk at
    sqrt(AB); sign = +1 or -1 picks the root sqrt(AB - C^2)."""
    d = integer(d, "d", cls.MIN_D)
    fixed, swept = cls.types(d)
    if type_name not in fixed + swept:
        raise ContractError(f"unknown extremal type {type_name!r} at d = {d}")
    A, B, C = (finite_number(v, n) for v, n in zip((A, B, C), "ABC"))
    if integer(sign, "sign", -1, ContractError) not in (-1, 1):
        raise ContractError(f"sign must be +1 or -1, got {sign!r}")
    if type_name in swept:
        n = A + B
        if A < 0 or B < 0 or not 0 < n < math.inf:
            raise ContractError(f"need A,B >= 0, 0 < A + B < inf: {A, B}")
        A, B, C = A / n, B / n, C / n
        if abs(C) > 1 or classify(A * B - C * C, 0.25) == "false":
            raise ContractError("need A,B >= 0 and AB >= C^2")
        C = math.copysign(min(abs(C), math.sqrt(A * B)), C)
    return cls.from_tuple6(d, realize(cls, type_name, A, B, C, sign, d))


def invariant_matrix(c: Coeffs, build_op):
    """X = sum_sigma a_sigma X_sigma on (C^d)^3, X_sigma = build_op(sigma, d)."""
    check_dense(c.d**3)
    v = c.vector()
    out = v[0] * build_op(PERMS[0], c.d)
    for wi, s in zip(v[1:], PERMS[1:]):
        if wi != 0:
            out += wi * build_op(s, c.d)
    return out


def state_check(c: Coeffs):
    """Raise unless the coefficients describe a quantum state.  The rounding
    error of the trace is bounded by EQ_TOL times the sum S >= |trace| of its
    terms' magnitudes; an infinite S means an overflow and is refused."""
    d, (ae, a12, a13, a23, r, _) = c.d, c.as_tuple6()
    tr = c.trace()
    bound = EQ_TOL * (d**3 * abs(ae) + 2 * d * abs(r)
                      + d**2 * (abs(a12) + abs(a13) + abs(a23)))
    if not abs(tr - 1.0) <= bound < math.inf:
        raise ContractError(f"trace {tr} != 1: not a normalized state")
    if not is_cp(c):
        raise ContractError("coefficient matrix is not PSD: not a state")


def open_certificate(family, c: Coeffs):
    """The decision prologue: state_check, then c's certificate with one
    ppt_<part> check per bipartition; returns (cert, {part: verdict})."""
    state_check(c)
    cert = Certificate(family, c.d, {
        "a_e": c.a_e, "a_12": c.a_12, "a_13": c.a_13, "a_23": c.a_23,
        "re_123": c.r, "im_123": c.s})
    ppt = {}
    for part in CUTS:
        ppt[part], m = classify_cut(c, part[0])
        cert.add_check(f"ppt_{part}", ppt[part], margin=m)
    return cert, ppt


def linspace(lo, hi, n):
    """n >= 2 floats from lo to hi, equal bit for bit to np.linspace's:
    i * step + lo, the last one hi."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


_GRIDS = {}  # grid -> grid_table(grid)


def grid_size(grid, what):
    """The grid rule: an int from 2 to MAX_GRID, else ContractError."""
    grid = integer(grid, what, 2, ContractError)
    if grid > MAX_GRID:
        raise ContractError(f"{what} must be <= {MAX_GRID}, got {grid}")
    return grid


def grid_table(grid):
    """The points of the compact (A-B, C) grid at A + B = 1, as one
    array('d') of (A, B, C, sqrt(AB - C^2)) per point, built once per grid
    from linspace values (2 MB at MAX_GRID)."""
    grid = grid_size(grid, "witness grid")
    table = _GRIDS.get(grid)
    if table is None:
        table = array("d", [0.0]) * (4 * grid * grid)
        k = 0
        for u in linspace(-1.0, 1.0, grid):
            A, B = (1 + u) / 2, (1 - u) / 2
            cmax = math.sqrt(A * B)
            for C in linspace(-cmax, cmax, grid):
                table[k], table[k + 1], table[k + 2] = A, B, C
                table[k + 3] = math.sqrt(max(A * B - C * C, 0.0))
                k += 4
        _GRIDS[grid] = table
    return table


def grid_points(grid):
    """(A, B, C, sign) over grid_table(grid), one per row of a swept type:
    at each point the +1 sign, then -1."""
    table = iter(grid_table(grid))
    for A, B, C, _ in zip(table, table, table, table):
        yield A, B, C, +1
        yield A, B, C, -1


def realize_row(cls, d, key):
    """realize's row of a key, a fixed type's name or (type, A, B, C,
    sign); a refusal is a NumericalError that names the row."""
    point = (key, 0.0, 0.0, 0.0, +1) if isinstance(key, str) else key
    try:
        return realize(cls, *point, d)
    except ContractError as exc:
        raise NumericalError(f"the row {witness_id(key)} is refused: {exc}")


_CHECKED = set()  # the (cls, d, grid) whose catalogue rows all passed


def catalogue(cls, d, grid):
    """Witness items of cls, one at a time: each fixed type's row (name,
    tuple6), then one item (A, B, C, pairs) per point of grid_table(grid),
    pairs = [(type, tuple6), ...] over the decomposable swept types (KIND
    "CP" or "CCP"); a type that is neither gets exact_rows instead.  A pair
    stands for two rows: tuple6 is the +1 row, and the -1 row, its complex
    conjugate, is tuple6 with im a_123 negated, since TUPLES put the root in
    that slot only and the normalizer never reads it; margins6 and scale6
    read im a_123 only through |.|, so positive6 passes both or neither.
    The first pass of a (cls, d, grid) makes each fixed and +1 row by
    realize_row, checked before it is yielded, and records the triple once
    it ends; later passes make the same rows by normalized, unchecked."""
    d = integer(d, "d", cls.MIN_D)
    fixed, swept = cls.types(d)
    swept = tuple(t for t in swept if cls.KIND[t] != "neither")
    table = grid_table(grid)
    done = (cls, d, grid) in _CHECKED
    for t in fixed:
        yield t, (normalized(cls, t, 0.0, 0.0, 0.0, 0.0, d) if done
                  else realize_row(cls, d, t))
    for A, B, C, root in zip(*[iter(table)] * 4):
        if done:
            pairs = []
            for t in swept:
                pairs.append((t, normalized(cls, t, A, B, C, root, d)))
        else:
            pairs = [(t, realize_row(cls, d, (t, A, B, C, +1))) for t in swept]
        yield A, B, C, pairs
    _CHECKED.add((cls, d, grid))


def rows(items):
    """The (key, tuple6) rows of catalogue items in sweep order: a row as
    it is, a grid point's +1 rows, keyed (type, A, B, C, +1), then its -1
    rows."""
    for item in items:
        if len(item) == 2:
            yield item
            continue
        A, B, C, pairs = item
        for t, row in pairs:
            yield (t, A, B, C, +1), row
        for t, (ae, a12, a13, a23, r, s) in pairs:
            yield (t, A, B, C, -1), (ae, a12, a13, a23, r, -s)


def exact_minimum(c: Coeffs, type_name):
    """(m, (A, B, C, sign)): the least witness eigenvalue m on c over the
    whole parameter sphere of the swept type_name, and a point attaining it.

    At A + B = 1 a point is x = (A - 1/2, C, +-sqrt(AB - C^2)) on the
    sphere |x| = 1/2 (the types are homogeneous, so A + B = 1 loses
    nothing), and the raw tuple6 is affine in x.  Each of the two
    eigenvalues witness_minima takes of the normalized row is then
    N(x)/D(x), N and D affine and D the trace normalizer, > 0 on the sphere
    (>= d - 1 for werner3's Type III).  Write N = mu D + m . x, mu =
    N(0)/D(0).  min N/D = mu + l, l the root of min_x (m - l dv) . x -
    l D(0) = -|m - l dv|/2 - l D(0) = 0 (Dinkelbach): the smaller root of
    (D(0)^2 - |dv|^2/4) l^2 + (m . dv/2) l - |m|^2/4, which is <= 0 and
    has no cancellation; x* = -(m - l dv)/(2|m - l dv|)."""
    d, raw = c.d, type(c).TUPLES[type_name]
    t0 = raw(0.5, 0.5, 0.0, 0.0, d)
    cols = [[2 * (v - v0) for v, v0 in zip(raw(*p, d), t0)]
            for p in ((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.0),
                      (0.5, 0.5, 0.0, 0.5))]

    def affine(f):  # f . tuple6 as f . t0 + (f . cols) . x
        return _dot(f, t0), [_dot(f, col) for col in cols]

    d0, dv = affine((d * d, d, d, d, 2, 0))
    if not d0 - math.hypot(*dv) / 2 > 0:
        raise NumericalError(f"Type {type_name}'s normalizer is not > 0")
    qa = d0 * d0 - _dot(dv, dv) / 4
    best = None
    for f in branches(c):
        n0, nv = affine(f)
        mu = n0 / d0
        m = [n - mu * e for n, e in zip(nv, dv)]
        qb, qc = -_dot(m, dv) / 4, _dot(m, m) / 4
        root = math.sqrt(qb * qb + qa * qc)
        lo = -qc / (qb + root) if qb > 0 else (qb - root) / qa
        if best is None or mu + lo < best[0]:
            best = mu + lo, [v - lo * e for v, e in zip(m, dv)]
    lam, g = best
    r = 2 * math.hypot(*g)
    x = [-v / r for v in g] if r > 0 else [0.5, 0.0, 0.0]
    return lam, (0.5 + x[0], 0.5 - x[0], x[1], 1 if x[2] >= 0 else -1)


def exact_rows(c: Coeffs):
    """One row for each swept type of c's class that is neither CP nor
    CCP: its exact_minimum point, by realize_row, so a point realize
    refuses is a NumericalError, never a skipped row."""
    cls = type(c)
    for t in cls.types(c.d)[1]:
        if cls.KIND[t] == "neither":
            key = (t, *exact_minimum(c, t)[1])
            yield key, realize_row(cls, c.d, key)


def witness_id(key):
    """The id of a row key: a name, or type[A,B,C,sign] for a swept one,
    A, B and C by repr, so that the id parses back to the row realize
    makes."""
    return (key if isinstance(key, str)
            else "{}[{!r},{!r},{!r},{:+d}]".format(*key))


def gram6(c: Coeffs):
    """kg . tuple6(w) = sum_sigma w_sigma Tr(rho X_sigma), w as PERMS."""
    d, v = c.d, c.vector()
    g = [sum(d**k * x for k, x in zip(row, v)) for row in CYCLES[:5]]
    return (g[0].real, g[1].real, g[2].real, g[3].real, 2 * g[4].real,
            -2 * g[4].imag)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def branches(c: Coeffs):
    """(alpha, omega): a row's two witness eigenvalues are alpha . t and
    omega . t on its tuple6 t (witness_minima)."""
    d, kg = c.d, gram6(c)
    omega = [k / d for k in kg]
    traces = (d * kg[0], kg[0], kg[0], d * kg[3], 2 * kg[3], 0.0)
    return [(t - o) / (d * d - 1) for t, o in zip(traces, omega)], omega


def witness_minima(c: Coeffs, items):
    """(key, least eigenvalue of (id (x) W*)(rho)) for each row (key, W) of
    the items (catalogue's: rows, and grid points of conjugate pairs) in
    the order of rows(items).  Each image (id (x) X_sigma*)(rho) lies in
    span{I, d Omega}: its eigenvalue on Omega is g_sigma / d, g_sigma =
    Tr(rho X_sigma), and its trace, d g_e, g_e, g_e, d g_23, g_23, g_23,
    fixes its eigenvalue on the other d^2 - 1 directions; g_132 =
    conj(g_123) leaves six real terms.  A pair shares the first five, S,
    and its rows take S + s a_5 and S - s a_5: the same bits as the six-term
    sum of each row, as (-s) a = -(s a) and x - y = x + (-y) exactly."""
    (a0, a1, a2, a3, a4, a5), (o0, o1, o2, o3, o4, o5) = branches(c)
    for item in items:
        if len(item) == 2:
            key, (e, x, y, z, r, s) = item
            p = e * a0 + x * a1 + y * a2 + z * a3 + r * a4 + s * a5
            q = e * o0 + x * o1 + y * o2 + z * o3 + r * o4 + s * o5
            yield key, (p if p < q else q)
            continue
        A, B, C, pairs = item
        conj = []
        for t, (e, x, y, z, r, s) in pairs:
            p = e * a0 + x * a1 + y * a2 + z * a3 + r * a4
            q = e * o0 + x * o1 + y * o2 + z * o3 + r * o4
            sp, sq = s * a5, s * o5
            hi, ho = p + sp, q + sq
            yield (t, A, B, C, +1), (hi if hi < ho else ho)
            p, q = p - sp, q - sq
            conj.append(((t, A, B, C, -1), p if p < q else q))
        yield from conj


def witness_sweep(cert, c: Coeffs, items):
    """One pass of witness_minima over the items, one or more rows; a NaN
    minimum is a NumericalError.  Records the witness_sweep check at
    ||rho||_F and returns the first row, the first of least minimum (as
    witnesses) and the pass."""
    minima = witness_minima(c, items)
    first = worst = next(minima)
    lo = math.inf
    for n, pair in enumerate(chain((first,), minima), 1):
        if not pair[1] >= lo:  # a new least, or NaN
            if pair[1] != pair[1]:
                raise NumericalError("a witness minimum is NaN: overflow")
            worst, lo = pair, pair[1]
    vg = sum(k * t for k, t in zip(gram6(c), c.as_tuple6()))
    verdict = classify(lo, math.sqrt(max(vg, 0.0)))
    cert.add_check("witness_sweep", verdict, count=n, min_eig=lo)
    out = [{"id": witness_id(k), "min_eig": m} for k, m in (first, worst)]
    return out[0], out[0] if worst is first else out[1], verdict != "false"
