"""Quantum-orthogonal / U(x)Ubar(x)U symmetry: states spanned by the
partially transposed permutation operators T_sigma = V_sigma^{T_B} and the
dual covariant maps M_sigma = (T (x) id) o L_sigma.

For this family A-BC PPT and A-BC separability coincide in every dimension;
CP, CCP and the partial-transpose verdicts are the block forms s3.block
picks for the T basis, at every d.  At d = 2 the T_sigma obey one linear
relation; the summands it touches have multiplicity 0 in the block forms,
and only positivity folds it in, through reduce_d2.
"""

from . import s3
from .certificate import Certificate
from .choi import LinMap
from .linalg import DEFAULT_TOL, ContractError
from .twirl import build_T


class QuoCoeffs(s3.Coeffs):
    """Coefficients over the T_sigma basis, same layout and reality pattern
    as the Werner family; at d = 2 the a_e coefficient is redundant and gets
    folded into the others by reduce_d2."""

    MIN_D = 2
    TRANSPOSED = "B"

    @staticmethod
    def scale6(d, t):
        """The scale of reduce_d2(d, t): at d = 2 one band per operator."""
        return s3.Coeffs.scale6(d, reduce_d2(d, t))

    @staticmethod
    def margins6(d, t):
        """Slacks of the closed-form positivity inequalities for
        M = sum a M_sigma (equivalently PSD-ness of M(e_11))."""
        if d == 2:
            _, a12, a13, a23, r, s = reduce_d2(d, t)
            s1 = a12 + a13 + a23 + 2 * r
            return (a12, a13, a23, s1,
                    s1 * a23 - abs(complex(a23 + r, s)) ** 2)
        ae, a12, a13, a23, r, s = t
        s1 = ae + a12 + a13 + a23 + 2 * r
        s2 = ae + (d - 1) * a23
        return (ae, ae + a12, ae + a13, s1, s2,
                s1 * s2 - (d - 1) * abs(complex(a23 + r, s)) ** 2)


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


def positivity_margins_quo(c: QuoCoeffs):
    return QuoCoeffs.margins6(c.d, c.as_tuple6())


def is_positive_quo(c: QuoCoeffs, tol=DEFAULT_TOL):
    return s3.positive6(QuoCoeffs, c.d, c.as_tuple6(), tol)


def is_cp_quo(c: QuoCoeffs, tol=DEFAULT_TOL):
    """CP of M / PSD-ness of sum a_sigma T_sigma."""
    return s3.classify_cut(c, "", tol)[0] != "false"


def is_ccp_quo(c: QuoCoeffs, tol=DEFAULT_TOL):
    """CCP of M / PSD-ness of (sum a_sigma T_sigma)^{T_A}."""
    return s3.classify_cut(c, "A", tol)[0] != "false"


def ppt_quo(c: QuoCoeffs, tol=DEFAULT_TOL):
    """Partial-transpose verdicts for the state rho = sum a_sigma T_sigma."""
    return {part: s3.classify_cut(c, part[0], tol)[0] != "false"
            for part in s3.CUTS}


def _realize_quo(type_name, A, B, C, sign, d):
    """The s3.realize tuple6 of a map of Type I-IV for d >= 3, Type I'/II'
    for d = 2, where they take the tuples of III/IV."""
    if type_name in ("III", "IV", "I'", "II'"):
        s3.check_params(A, B, C)
    ss = s3.signed_root(A, B, C, sign)
    if type_name not in (("I", "II", "III", "IV") if d >= 3
                         else ("I'", "II'")):
        raise ContractError(f"unknown extremal type {type_name!r} for "
                            + ("d >= 3" if d >= 3 else "d = 2"))
    if type_name == "I":
        tup = (d - 1.0, -1.0, 1.0 - d, -1.0, 1.0, 0.0)
    elif type_name == "II":
        tup = (d - 1.0, 1.0 - d, -1.0, -1.0, 1.0, 0.0)
    elif type_name in ("III", "I'"):
        tup = (0.0, A + B - 2 * C, 0.0, B, C - B, ss)
    else:
        tup = (0.0, 0.0, A + B - 2 * C, B, C - B, ss)
    return s3.realize(QuoCoeffs, d, type_name, (A, B, C), tup)


def extremal_quo(type_name, A=0.0, B=0.0, C=0.0, sign=+1, d=3) -> QuoCoeffs:
    """Coefficients of the extremal trace-preserving positive covariant
    map; Types I-IV for d >= 3, Types I'/II' for d = 2."""
    return QuoCoeffs.from_tuple6(d, _realize_quo(type_name, A, B, C, sign, d))


def _witness_rows(d, grid):
    """Catalogue rows (id, tuple6): Types I and II, then III/IV over
    s3.grid_points; at d = 2 only I'/II' over the grid."""
    if d >= 3:
        rows = [(t, extremal_quo(t, d=d).as_tuple6())
                for t in ("I", "II")]
        return rows + s3.grid_rows(_realize_quo, ("III", "IV"), d, grid)
    return s3.grid_rows(_realize_quo, ("I'", "II'"), d, grid)


def decide_quo(c: QuoCoeffs, grid=s3.GRID, tol=DEFAULT_TOL) -> Certificate:
    """Separability certificate across A-BC: separable iff A-BC PPT.

    The closed-form PPT verdict is decisive; the least eigenvalue of the
    A-partial transpose, read off its block form, and a sweep over extremal
    witnesses of every type are recorded as confirming evidence.
    """
    cert, ppt = s3.open_certificate("quo", c, is_cp_quo, tol)
    cert.add_check("separable_A-BC", ppt["A-BC"],
                   margin=cert.checks["ppt_A-BC"]["evidence"]["margin"])
    rows = _witness_rows(c.d, grid)
    mins, _ = s3.witness_sweep(cert, c, rows, tol)
    worst = mins.index(min(mins))
    cert.witnesses.append({"id": rows[worst][0], "min_eig": mins[worst]})
    cert.verdict = "ENTANGLED" if ppt["A-BC"] == "false" else "SEPARABLE"
    return cert
