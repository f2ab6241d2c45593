"""Quantum-orthogonal / U(x)Ubar(x)U symmetry: states spanned by the
partially transposed permutation operators T_sigma = V_sigma^{T_B} and the
dual covariant maps M_sigma = (T (x) id) o L_sigma.

For this family A-BC PPT and A-BC separability coincide in every dimension.
QuoCoeffs states the family as data: the T basis, the positivity margins and
the extremal types (I-IV at d >= 3, I'/II' at d = 2); s3 answers CP, CCP,
the partial-transpose verdicts, the extremals and the witness catalogue from
them.  At d = 2 the T_sigma obey one linear relation; the summands it
touches have multiplicity 0 in the block forms, and only positivity folds it
in, through reduce_d2.
"""

from . import s3
from .certificate import Certificate
from .choi import LinMap
from .twirl import build_T

# perfbench's tracer times these names by family; the s3 functions answer.
is_positive_quo, is_cp_quo, is_ccp_quo, ppt_quo = (s3.is_positive, s3.is_cp,
                                                   s3.is_ccp, s3.ppt)


class QuoCoeffs(s3.Coeffs):
    """Coefficients over the T_sigma basis, same layout and reality pattern
    as the Werner family; at d = 2 the a_e coefficient is redundant and gets
    folded into the others by reduce_d2."""

    MIN_D = 2
    TRANSPOSED = "B"
    # extremal type -> its raw tuple6 at (A, B, C, rt = +-sqrt(AB - C^2), d)
    TUPLES = {
        "I": lambda A, B, C, rt, d: (d - 1.0, -1.0, 1.0 - d, -1.0, 1.0, 0.0),
        "II": lambda A, B, C, rt, d: (d - 1.0, 1.0 - d, -1.0, -1.0, 1.0, 0.0),
        "III": lambda A, B, C, rt, d: (0.0, A + B - 2 * C, 0.0, B, C - B, rt),
        "IV": lambda A, B, C, rt, d: (0.0, 0.0, A + B - 2 * C, B, C - B, rt),
    }
    TUPLES["I'"], TUPLES["II'"] = TUPLES["III"], TUPLES["IV"]
    # extremal type -> "CP", "CCP" or "neither"; decomposable iff CP or CCP
    KIND = {"I": "CP", "II": "CCP", "III": "CP", "IV": "CCP", "I'": "CP",
            "II'": "CCP"}

    @staticmethod
    def types(d):
        """(fixed types, types swept over the witness grid): I-IV at d >= 3,
        I'/II' at d = 2, which take the tuples of III/IV."""
        return (("I", "II"), ("III", "IV")) if d >= 3 else ((), ("I'", "II'"))

    @staticmethod
    def scale6(d, t):
        """The scale of reduce_d2(d, t): at d = 2 one band per operator."""
        return s3.Coeffs.scale6(d, reduce_d2(d, t))

    @staticmethod
    def margins6(d, t):
        """Positivity margins of M = sum a M_sigma on reduce_d2(d, t) (all
        >= 0 iff M(e_11) is PSD), the last the least eigenvalue of its 2x2
        block.  a_e is an eigenvalue of M(e_11) of multiplicity d(d - 2),
        kept only where that is nonzero, as Table2Block.min_margin does."""
        ae, a12, a13, a23, r, s = reduce_d2(d, t)
        s1 = ae + a12 + a13 + a23 + 2 * r
        s2 = ae + (d - 1) * a23
        return (ae,) * (d > 2) + (
            ae + a12, ae + a13, s1, s2,
            s3.least2(s1, s2, (d - 1) ** 0.5 * complex(a23 + r, s)))


def reduce_d2(d, t):
    """Fold a_e of the tuple6 t into the other coefficients via the d = 2
    relation T_e = T_12 + T_13 + T_23 - T_123 - T_132; t itself at d > 2."""
    if d != 2:
        return t
    ae = t[0]
    return (0.0, t[1] + ae, t[2] + ae, t[3] + ae, t[4] - ae, t[5])


def build_M(sigma, d) -> LinMap:
    """The covariant map whose unnormalized Choi matrix is T_sigma."""
    return LinMap(d, d * d, build_T(sigma, d), family="quo-M")


def build_map(c: QuoCoeffs) -> LinMap:
    """M = sum_sigma a_sigma M_sigma, whose Choi matrix is the invariant
    matrix of c."""
    return LinMap(c.d, c.d * c.d, invariant_matrix(c), family="quo-M")


def invariant_matrix(c: QuoCoeffs):
    """X = sum_sigma a_sigma T_sigma on (C^d)^3."""
    return s3.invariant_matrix(c, build_T)


def extremal_quo(type_name, A=0.0, B=0.0, C=0.0, sign=+1, d=3) -> QuoCoeffs:
    """Coefficients of the extremal trace-preserving positive covariant
    map; Types I-IV for d >= 3, Types I'/II' for d = 2."""
    return s3.extremal(QuoCoeffs, type_name, A, B, C, sign, d)


def _witness_rows(d, grid):
    """s3.catalogue of the T basis as a list of (id, tuple6), one per
    row."""
    return [(s3.witness_id(k), t)
            for k, t in s3.rows(s3.catalogue(QuoCoeffs, d, grid))]


def decide_quo(c: QuoCoeffs, grid=s3.GRID) -> Certificate:
    """Separability certificate across A-BC: separable iff A-BC PPT.

    The closed-form PPT verdict is decisive; the least eigenvalue of the
    A-partial transpose, read off its block form, and a sweep over extremal
    witnesses of every type, streamed in one pass, are recorded as
    confirming evidence.
    """
    cert, ppt = s3.open_certificate("quo", c)
    cert.add_check("separable_A-BC", ppt["A-BC"],
                   margin=cert.checks["ppt_A-BC"]["evidence"]["margin"])
    rows = s3.catalogue(QuoCoeffs, c.d, grid)
    cert.witnesses.append(s3.witness_sweep(cert, c, rows)[1])
    cert.verdict = "ENTANGLED" if ppt["A-BC"] == "false" else "SEPARABLE"
    return cert
