"""Tripartite Werner symmetry: states invariant under U(x)U(x)U and the dual
covariant maps L_sigma indexed by S3 permutations.

An invariant operator is X = sum_sigma a_sigma V_sigma over the six
permutation operators; the dual maps L_sigma have unnormalized Choi matrix
V_sigma.  S3Coeffs states the family as data: the V basis, the positivity
margins and the extremal Types I-III.  s3 answers the rest from them:
positivity, CP, CCP and each partial transpose reduce to scalar inequalities
and the closed-form spectrum of a single 2x2 block via the C (+) C (+) M_2(C)
block decomposition of the invariant algebra.

KIND names each extremal type CP, CCP or neither, and an extremal map is
decomposable iff it is CP or CCP.  Type I is CP and Type II CCP, so on an
A-BC-PPT state their witness images are PSD; only Type III, neither, can
see PPT entanglement.  The sweep therefore takes Types I and II as rows of
the witness grid, and Type III as one exact row: s3.exact_minimum finds the
least witness eigenvalue over its whole parameter sphere in closed form,
and s3.exact_rows realizes that point, checked, as the witness
III[A,B,C,sign].  An A-BC-PPT state's verdict does not depend on the grid.
The canonical witness L0 = (1, 1, -1, 1, -1, 0) is (d + 2)(d - 1) times
the normalized Type III row at (A, B, C) = (1, 0, 0), so the exact Type
III row fires whenever L0 does.
"""

import math
from itertools import chain

from . import s3
from .certificate import Certificate
from .choi import LinMap
from .linalg import ContractError, finite_number, integer
from .twirl import build_V

# perfbench's tracer times these names by family; the s3 functions answer.
Table2Block = s3.Table2Block
is_positive_w3, is_cp_w3, is_ccp_w3, ppt_w3 = (s3.is_positive, s3.is_cp,
                                               s3.is_ccp, s3.ppt)


class S3Coeffs(s3.Coeffs):
    """Coefficients over the V_sigma basis; at d = 2 the V basis is
    dependent, so that case belongs to the quo family."""

    MIN_D = 3
    TRANSPOSED = ""
    # extremal type -> its raw tuple6 at (A, B, C, rt = +-sqrt(AB - C^2), d)
    TUPLES = {
        "I": lambda A, B, C, rt, d: (1.0, -1.0, -1.0, -1.0, 1.0, 0.0),
        "II": lambda A, B, C, rt, d: (0.0, A, B, 0.0, C, rt),
        "III": lambda A, B, C, rt, d: (
            (A + B + 2 * C) / 2, (A - B - 2 * C) / 2, (-A + B - 2 * C) / 2,
            (A + B + 2 * C) / 2, -(A + B) / 2, rt),
    }
    # extremal type -> "CP", "CCP" or "neither"; decomposable iff CP or CCP
    KIND = {"I": "CP", "II": "CCP", "III": "neither"}

    @staticmethod
    def types(d):
        """(fixed types, types swept over the witness grid)."""
        return ("I",), ("II", "III")

    @staticmethod
    def margins6(d, t):
        """Positivity margins (all >= 0 iff the map is positive iff L(e_11)
        is PSD), the last the least eigenvalue of its 2x2 block."""
        ae, a12, a13, a23, r, s = t
        return (ae + a12, ae + a13, ae - abs(a23),
                ae + a12 + a13 + a23 + 2 * r,
                s3.least2(ae + a12, ae + a13, complex(a23 + r, s)))


def build_L(sigma, d) -> LinMap:
    """The covariant map whose unnormalized Choi matrix is V_sigma."""
    return LinMap(d, d * d, build_V(sigma, d), family="werner3-L")


def build_map(c: S3Coeffs) -> LinMap:
    """L = sum_sigma a_sigma L_sigma, whose Choi matrix is the invariant
    matrix of c."""
    return LinMap(c.d, c.d * c.d, invariant_matrix(c), family="werner3-L")


def invariant_matrix(c: S3Coeffs):
    """X = sum_sigma a_sigma V_sigma on (C^d)^3."""
    return s3.invariant_matrix(c, build_V)


def extremal_w3(type_name, A=0.0, B=0.0, C=0.0, sign=+1, d=3) -> S3Coeffs:
    """Coefficients of the extremal trace-preserving positive covariant map
    of Type I/II/III."""
    return s3.extremal(S3Coeffs, type_name, A, B, C, sign, d)


def witness_L0(d) -> S3Coeffs:
    """L0, the first row of witness_rows: Type III at A = 1, B = C = 0 in
    the integer form a_e = 1, since witness verdicts are scale invariant."""
    return S3Coeffs.from_tuple6(d, next(witness_rows(d, s3.GRID))[1])


def rho_t_coeffs(d, t) -> S3Coeffs:
    """The coefficients of rho_t; werner3.invariant_matrix builds its
    dense matrix."""
    d = integer(d, "d", 3)
    t = finite_number(t, "t")
    if t <= 0:
        raise ContractError("t must be > 0")
    norm = d**3 + (t + 1) * d**2 + 2 * t
    if not math.isfinite(norm):
        raise ContractError(f"rho_t normalizer overflows at t = {t}")
    pf = 1.0 / norm
    return S3Coeffs(d, pf * (d + t) / d, 0.0, pf, 0.0,
                    complex(pf * t / d, 0.0))


def rho_t(d, t):
    """(rho_t_coeffs(d, t), the dense matrix).  Nothing in covwit calls it;
    perfbench's tracer test does, so it leaves with the next benchmark
    change."""
    c = rho_t_coeffs(d, t)
    return c, invariant_matrix(c)


def t_max(d=3):
    """Largest t for which rho_t stays A-BC PPT.  In s3.G_iso(rho_t), s1, s2
    and the block's (0, 0) entry are positive, so the block decides: its
    determinant is proportional to d^2 (d + 1) + d (d + 4) t - (d^2 - 4) t^2,
    and the edge is the larger root of that quadratic."""
    d = integer(d, "d", 3)
    a, b, c = d * d - 4, d * (d + 4), d * d * (d + 1)
    return (b + math.sqrt(b * b + 4 * a * c)) / (2 * a)


def witness_rows(d, grid):
    """The witness items that do not depend on the state, one at a time: L0,
    then s3.catalogue (Type I, and Type II over the grid in conjugate
    pairs)."""
    return chain((("L0", (1.0, 1.0, -1.0, 1.0, -1.0, 0.0)),),
                 s3.catalogue(S3Coeffs, d, grid))


def _witness_coeff_grid(d, grid):
    """witness_rows as a list of (id, tuple6), one per row."""
    return [(s3.witness_id(k), t) for k, t in s3.rows(witness_rows(d, grid))]


def detect_entanglement_w3(c: S3Coeffs, grid=s3.GRID) -> Certificate:
    """Witness sweep over extremal covariant positive maps.

    The rows are L0, Type I, Type II over the grid and the exact Type III
    row.  Any witness with (id (x) L*)(rho) acquiring a negative eigenvalue
    proves entanglement across A-BC; a PPT failure proves entanglement too;
    otherwise no extremal map of Types I-III detects it and the verdict is
    INCONCLUSIVE-AT-RESOLUTION.  The grid holds only decomposable rows, which
    cannot fire on an A-BC-PPT state, so there the verdict is the same at
    every grid; it moves with the grid only between ENTANGLED and
    NPT-ENTANGLED.  The certificate names L0 and the first worse row, if
    there is one.
    """
    cert, ppt = s3.open_certificate("werner3", c)
    rows = chain(witness_rows(c.d, grid), s3.exact_rows(c))
    first, worst, ok = s3.witness_sweep(cert, c, rows)
    cert.witnesses += [first] if worst is first else [first, worst]
    if not ok:
        cert.verdict = "ENTANGLED"
    elif "false" in ppt.values():
        cert.verdict = "NPT-ENTANGLED"
    else:
        cert.verdict = "INCONCLUSIVE-AT-RESOLUTION"
    return cert
