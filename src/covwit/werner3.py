"""Tripartite Werner symmetry: states invariant under U(x)U(x)U and the dual
covariant maps L_sigma indexed by S3 permutations.

An invariant operator is X = sum_sigma a_sigma V_sigma over the six
permutation operators; the dual maps L_sigma have unnormalized Choi matrix
V_sigma.  Positivity, CP, and CCP of coefficient combinations reduce to
scalar inequalities and the closed-form spectrum of a single 2x2 block via
the C (+) C (+) M_2(C) block decomposition of the invariant algebra.
"""

import math

from . import s3
from .certificate import Certificate
from .choi import LinMap
from .linalg import DEFAULT_TOL, ContractError, finite_number, integer
from .twirl import build_V

# perfbench's tracer times min_margin through this name.
Table2Block = s3.Table2Block


class S3Coeffs(s3.Coeffs):
    """Coefficients over the V_sigma basis; at d = 2 the V basis is
    dependent, so that case belongs to the quo family."""

    MIN_D = 3
    TRANSPOSED = ""

    @staticmethod
    def margins6(d, t):
        """Slacks of the closed-form positivity inequalities (all >= 0 iff
        the associated map is positive iff L(e_11) is PSD)."""
        ae, a12, a13, a23, r, s = t
        return (ae + a12, ae + a13, ae - abs(a23),
                ae + a12 + a13 + a23 + 2 * r,
                (ae + a12) * (ae + a13) - abs(complex(a23 + r, s)) ** 2)


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


def positivity_margins_w3(c: S3Coeffs):
    return S3Coeffs.margins6(c.d, c.as_tuple6())


def is_positive_w3(c: S3Coeffs, tol=DEFAULT_TOL):
    return s3.positive6(S3Coeffs, c.d, c.as_tuple6(), tol)


def is_cp_w3(c: S3Coeffs, tol=DEFAULT_TOL):
    """CP of the map / PSD-ness of the invariant matrix itself."""
    return s3.classify_cut(c, "", tol)[0] != "false"


def is_ccp_w3(c: S3Coeffs, tol=DEFAULT_TOL):
    """CCP of the map / PSD-ness of the A-partial-transposed matrix."""
    return s3.classify_cut(c, "A", tol)[0] != "false"


def ppt_w3(c: S3Coeffs, tol=DEFAULT_TOL):
    """Three partial-transpose verdicts for the invariant state."""
    return {part: s3.classify_cut(c, part[0], tol)[0] != "false"
            for part in s3.CUTS}


def _realize_w3(type_name, A, B, C, sign, d):
    """The s3.realize tuple6 of a Type I/II/III map."""
    if type_name not in ("I", "II", "III"):
        raise ContractError(f"unknown extremal type {type_name!r}")
    if type_name != "I":
        s3.check_params(A, B, C)
    ss = s3.signed_root(A, B, C, sign)
    if type_name == "I":
        tup = (1.0, -1.0, -1.0, -1.0, 1.0, 0.0)
    elif type_name == "II":
        tup = (0.0, A, B, 0.0, C, ss)
    else:
        tup = ((A + B + 2 * C) / 2, (A - B - 2 * C) / 2,
               (-A + B - 2 * C) / 2, (A + B + 2 * C) / 2,
               -(A + B) / 2, ss)
    return s3.realize(S3Coeffs, d, type_name, (A, B, C), tup)


def extremal_w3(type_name, A=0.0, B=0.0, C=0.0, sign=+1, d=3) -> S3Coeffs:
    """Coefficients of the extremal trace-preserving positive covariant map
    of Type I/II/III."""
    return S3Coeffs.from_tuple6(d, _realize_w3(type_name, A, B, C, sign, d))


def witness_L0(d) -> S3Coeffs:
    """The canonical non-decomposable extremal witness (Type III, A=1,B=C=0),
    rescaled to a_e = 1: coefficients (1, 1, -1, 1, -1, 0).  Witness verdicts
    are scale invariant, so the trace-preserving normalization is dropped in
    favor of the canonical integer form."""
    ex = extremal_w3("III", 1.0, 0.0, 0.0, +1, d)
    return ex.scale_by(1.0 / ex.a_e)


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


def _witness_coeff_grid(d, grid):
    """Rows (id, tuple6) of the witness family: L0, Type I, and Types II/III
    over s3.grid_points."""
    return ([("L0", witness_L0(d).as_tuple6()),
             ("I", extremal_w3("I", d=d).as_tuple6())]
            + s3.grid_rows(_realize_w3, ("II", "III"), d, grid))


def detect_entanglement_w3(c: S3Coeffs, grid=s3.GRID,
                           tol=DEFAULT_TOL) -> Certificate:
    """Witness sweep over extremal covariant positive maps.

    Any witness with (id (x) L*)(rho) acquiring a negative eigenvalue proves
    entanglement across A-BC; a PPT failure proves entanglement too; otherwise
    the verdict is inconclusive at the chosen grid resolution.
    """
    cert, ppt = s3.open_certificate("werner3", c, is_cp_w3, tol)
    rows = _witness_coeff_grid(c.d, grid)
    mins, ok = s3.witness_sweep(cert, c, rows, tol)
    worst = mins.index(min(mins))
    cert.witnesses.append({"id": rows[0][0], "min_eig": mins[0]})
    if worst != 0:
        cert.witnesses.append({"id": rows[worst][0], "min_eig": mins[worst]})
    if not ok:
        cert.verdict = "ENTANGLED"
    elif "false" in ppt.values():
        cert.verdict = "NPT-ENTANGLED"
    else:
        cert.verdict = "INCONCLUSIVE-AT-RESOLUTION"
    return cert
