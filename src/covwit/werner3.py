"""Tripartite Werner symmetry: states invariant under U(x)U(x)U and the dual
covariant maps L_sigma indexed by S3 permutations.

An invariant operator is X = sum_sigma a_sigma V_sigma over the six
permutation operators; the dual maps L_sigma have unnormalized Choi matrix
V_sigma.  Positivity, CP, and CCP of coefficient combinations reduce to
scalar inequalities and the closed-form spectrum of a single 2x2 block via
the C (+) C (+) M_2(C) block decomposition of the invariant algebra.
"""

import cmath
import math
from dataclasses import dataclass

from . import s3
from .certificate import Certificate
from .choi import LinMap
from .linalg import (DEFAULT_TOL, ContractError, classify, finite_number,
                     integer)
from .twirl import build_V

OMEGA = cmath.exp(2j * cmath.pi / 3)


class S3Coeffs(s3.Coeffs):
    """Coefficients over the V_sigma basis; at d = 2 the V basis is
    dependent, so that case belongs to the quo family."""

    MIN_D = 3

    @staticmethod
    def margins6(d, t):
        """Slacks of the closed-form positivity inequalities (all >= 0 iff
        the associated map is positive iff L(e_11) is PSD)."""
        ae, a12, a13, a23, r, s = t
        return (ae + a12, ae + a13, ae - abs(a23),
                ae + a12 + a13 + a23 + 2 * r,
                (ae + a12) * (ae + a13) - abs(complex(a23 + r, s)) ** 2)


@dataclass(frozen=True)
class Table2Block:
    """Image of an invariant operator in the C (+) C (+) M_2(C) picture:
    the operator's spectrum is s1, s2 and the two eigenvalues of the
    Hermitian block [[b00, b01], [conj(b01), b11]].  s2 is None where its
    summand has dimension 0 (d = 2)."""

    s1: float
    s2: float | None
    b00: float
    b11: float
    b01: complex

    def min_margin(self):
        """The least eigenvalue of the operator; the block's is
        (b00 + b11)/2 - hypot((b00 - b11)/2, |b01|)."""
        lo = ((self.b00 + self.b11) / 2
              - math.hypot((self.b00 - self.b11) / 2, abs(self.b01)))
        return min(v for v in (self.s1, self.s2, lo) if v is not None)


def relabel(c: s3.Coeffs, tau):
    """Coefficients of V_tau X V_tau: b_sigma = a_{tau sigma tau}, in the
    class of c (the relabeling is the same for the T basis)."""
    q = c.a_123
    cls = type(c)
    if tau == "12":
        return cls(c.d, c.a_e, c.a_12, c.a_23, c.a_13, q.conjugate())
    if tau == "13":
        return cls(c.d, c.a_e, c.a_23, c.a_13, c.a_12, q.conjugate())
    if tau == "23":
        return cls(c.d, c.a_e, c.a_13, c.a_12, c.a_23, q.conjugate())
    raise ContractError(f"relabel expects a transposition, got {tau!r}")


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


def F_iso(c: s3.Coeffs) -> Table2Block:
    """Block image of X = sum a_sigma V_sigma; X is PSD iff all blocks are.
    s2 is X on Lambda^3 C^d, which is 0 at d = 2, so it is left out there."""
    ae, a12, a13, a23, _, _ = c.as_tuple6()
    q = c.a_123
    qb = q.conjugate()
    w, wb = OMEGA, OMEGA.conjugate()
    s1 = ae + a12 + a13 + a23 + 2 * c.r
    s2 = ae - (a12 + a13 + a23) + 2 * c.r
    return Table2Block(s1, None if c.d == 2 else s2,
                       (ae + wb * q + w * qb).real,
                       (ae + w * q + wb * qb).real,
                       wb * a12 + w * a13 + a23)


def G_iso(c: s3.Coeffs) -> Table2Block:
    """Block image of X^{T_A}; X^{T_A} is PSD iff all blocks are.  s2 is
    X^{T_A} on the part of Cbar^d (x) Lambda^2 C^d beyond one copy of C^d;
    at d = 2 that part is 0, so s2 is left out there."""
    d = c.d
    ae, a12, a13, a23, r, s = c.as_tuple6()
    y = math.sqrt(d * d - 1.0) / 2
    return Table2Block(ae + a23, None if d == 2 else ae - a23,
                       ae + a23 + (d + 1) / 2 * (a12 + a13 + 2 * r),
                       ae - a23 + (d - 1) / 2 * (a12 + a13 - 2 * r),
                       y * complex(a12 - a13, -2 * s))


def is_cp_w3(c: s3.Coeffs, tol=DEFAULT_TOL):
    """CP of the map / PSD-ness of the invariant matrix itself."""
    return classify(F_iso(c).min_margin(), c.scale(), tol) != "false"


def is_ccp_w3(c: s3.Coeffs, tol=DEFAULT_TOL):
    """CCP of the map / PSD-ness of the A-partial-transposed matrix."""
    return classify(G_iso(c).min_margin(), c.scale(), tol) != "false"


def ppt_margins_w3(c: S3Coeffs):
    """Least eigenvalue of each partial transpose, via relabelings."""
    return {
        "A-BC": G_iso(c).min_margin(),
        "B-AC": G_iso(relabel(c, "12")).min_margin(),
        "C-AB": G_iso(relabel(c, "13")).min_margin(),
    }


def ppt_w3(c: S3Coeffs, tol=DEFAULT_TOL):
    """Three partial-transpose verdicts for the invariant state."""
    return {part: v != "false"
            for part, v in s3.ppt_verdicts(ppt_margins_w3(c), c, tol).items()}


def _realize_w3(type_name, A, B, C, sign, d):
    """(sign as +-1, the s3.realize tuple6) of a Type I/II/III map."""
    if type_name not in ("I", "II", "III"):
        raise ContractError(f"unknown extremal type {type_name!r}")
    if type_name != "I":
        s3.check_params(A, B, C)
    sgn, ss = s3.signed_root(A, B, C, sign)
    if type_name == "I":
        tup = (1.0, -1.0, -1.0, -1.0, 1.0, 0.0)
    elif type_name == "II":
        tup = (0.0, A, B, 0.0, C, ss)
    else:
        tup = ((A + B + 2 * C) / 2, (A - B - 2 * C) / 2,
               (-A + B - 2 * C) / 2, (A + B + 2 * C) / 2,
               -(A + B) / 2, ss)
    return sgn, s3.realize(S3Coeffs, d, type_name, (A, B, C), tup)


def extremal_w3(type_name, A=0.0, B=0.0, C=0.0, sign=+1, d=3) -> s3.Extremal:
    """Extremal trace-preserving positive covariant map of Type I/II/III."""
    sgn, t = _realize_w3(type_name, A, B, C, sign, d)
    return s3.Extremal(type_name, (A, B, C), sgn, S3Coeffs.from_tuple6(d, t))


def witness_L0(d) -> S3Coeffs:
    """The canonical non-decomposable extremal witness (Type III, A=1,B=C=0),
    rescaled to a_e = 1: coefficients (1, 1, -1, 1, -1, 0).  Witness verdicts
    are scale invariant, so the trace-preserving normalization is dropped in
    favor of the canonical integer form."""
    ex = extremal_w3("III", 1.0, 0.0, 0.0, +1, d).realized
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
    """Largest t for which rho_t stays A-BC PPT.  In G_iso(rho_t), s1, s2
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
             ("I", extremal_w3("I", d=d).realized.as_tuple6())]
            + s3.grid_rows(_realize_w3, ("II", "III"), d, grid))


def state_check(c: S3Coeffs, tol=DEFAULT_TOL):
    """Raise unless the coefficients describe a quantum state."""
    s3.state_check(c, is_cp_w3, tol)


def detect_entanglement_w3(c: S3Coeffs, grid=s3.GRID,
                           tol=DEFAULT_TOL) -> Certificate:
    """Witness sweep over extremal covariant positive maps.

    Any witness with (id (x) L*)(rho) acquiring a negative eigenvalue proves
    entanglement across A-BC; a PPT failure proves entanglement too; otherwise
    the verdict is inconclusive at the chosen grid resolution.
    """
    state_check(c, tol)
    cert = s3.certificate("werner3", c, tol)
    margins = ppt_margins_w3(c)
    ppt = s3.ppt_verdicts(margins, c, tol)
    for part, v in ppt.items():
        cert.add_check(f"ppt_{part}", v, margin=margins[part])

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
