"""Shared core of the two S3-indexed families.

U(x)U(x)U-invariant operators (werner3) are spanned by the six permutation
operators V_sigma, U(x)Ubar(x)U-invariant ones (quo) by T_sigma =
V_sigma^{T_B}.  Both families store the same six coefficients, normalize
extremal maps the same way and sweep the same witness catalogue; this module
holds that common part.  Everything basis-specific (the operator builders,
closed forms and verdict rules) stays in werner3.py and quo.py and is passed
in, looked up in the family module at call time.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .certificate import Certificate
from .linalg import (DEFAULT_TOL, ContractError, check_dense, classify,
                     finite_number, integer)
from .twirl import PERMS

TP_TOL = 1e-12
GRID = 16  # default witness grid of both decision functions and --grid

# CYCLES[s, t] is the number of cycles of PERMS[s] o PERMS[t], so that
# Tr(X_s X_t) = d^CYCLES[s, t] for X = V, and for X = T as well because
# partial transposition preserves Tr(XY).
CYCLES = np.array([[3, 2, 2, 2, 1, 1], [2, 3, 1, 1, 2, 2],
                   [2, 1, 3, 1, 2, 2], [2, 1, 1, 3, 2, 2],
                   [1, 2, 2, 2, 1, 3], [1, 2, 2, 2, 3, 1]])


@dataclass(frozen=True)
class Coeffs:
    """Coefficients over a six-operator S3-indexed basis with the Hermitian
    reality pattern: a_e, a_12, a_13, a_23 real (stored as float), a_123
    complex, a_132 = conj(a_123) (never stored), d an int.  Subclasses set
    MIN_D, the least d at which the family's coefficients are valid."""

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
        """From (a_e, a_12, a_13, a_23, re a_123, im a_123)."""
        return cls(d, *v[:4], complex(finite_number(v[4], "re_123"),
                                      finite_number(v[5], "im_123")))

    @property
    def r(self):
        return self.a_123.real

    @property
    def s(self):
        return self.a_123.imag

    def as_tuple6(self):
        return (self.a_e, self.a_12, self.a_13, self.a_23, self.r, self.s)

    def vector(self):
        """Length-6 complex coefficient vector ordered as PERMS."""
        q = self.a_123
        return np.array([self.a_e, self.a_12, self.a_13, self.a_23,
                         q, q.conjugate()])

    def scale(self):
        """The boundary-rule scale: the largest |a_sigma|."""
        return max(abs(self.a_e), abs(self.a_12), abs(self.a_13),
                   abs(self.a_23), abs(self.a_123))

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
class Extremal:
    """An extremal trace-preserving positive covariant map."""

    type: str           # werner3: "I".."III"; quo: "I".."IV", d = 2: "I'", "II'"
    params: tuple       # (A, B, C)
    sign: int
    realized: Coeffs


def check_params(A, B, C):
    """The A, B >= 0, AB >= C^2 condition on continuous extremal types."""
    if A < 0 or B < 0 or A * B < C * C - TP_TOL:
        raise ContractError("need A,B >= 0 and AB >= C^2")


def signed_root(A, B, C, sign):
    """(sign as +-1, that sign times sqrt(AB - C^2))."""
    sgn = 1 if sign >= 0 else -1
    return sgn, sgn * math.sqrt(max(A * B - C * C, 0.0))


def extremal(cls, d, type_name, params, sign, tup, is_positive):
    """Normalize the raw coefficient tuple of a map to trace preservation
    and check it with the family's is_positive."""
    ae, a12, a13, a23, r, s = tup
    norm = d * d * ae + d * (a12 + a13 + a23) + 2 * r
    if norm <= TP_TOL:
        raise ContractError(
            f"degenerate trace-preservation normalizer for Type {type_name} "
            f"params {params}")
    f = 1.0 / norm
    realized = cls(d, f * ae, f * a12, f * a13, f * a23,
                   complex(f * r, f * s))
    if not is_positive(realized):
        raise ContractError(
            f"Type {type_name} tuple failed the positivity inequalities")
    return Extremal(type_name, params, sign, realized)


def margins_ok(margins, scale, tol=DEFAULT_TOL):
    """Boundary-rule test of positivity margins: every margin but the last
    is linear in the coefficients, the last one is quadratic."""
    return (classify(min(margins[:-1]), scale, tol) != "false"
            and classify(margins[-1], scale, tol, degree=2) != "false")


def ppt_verdicts(margins, c: Coeffs, tol=DEFAULT_TOL):
    """{partition: verdict} of partial-transpose margins at c's scale."""
    s = c.scale()
    return {part: classify(m, s, tol) for part, m in margins.items()}


def invariant_matrix(c: Coeffs, build_op):
    """X = sum_sigma a_sigma X_sigma on (C^d)^3, X_sigma = build_op(sigma, d)."""
    check_dense(c.d**3)
    out = np.zeros((c.d**3, c.d**3), dtype=complex)
    for wi, s in zip(c.vector(), PERMS):
        if wi != 0:
            out += wi * build_op(s, c.d)
    return out


def state_check(c: Coeffs, is_cp, tol=DEFAULT_TOL):
    """Raise unless the coefficients describe a quantum state.  The rounding
    error of the trace grows with the largest raw |a_sigma|, so its bound
    does too."""
    tr = c.trace()
    bound = tol.eq_tol * c.d**3 * max(1.0, Coeffs.scale(c))
    if not abs(tr - 1.0) <= bound:
        raise ContractError(f"trace {tr} != 1: not a normalized state")
    if not is_cp(c, tol):
        raise ContractError("coefficient matrix is not PSD: not a state")


def extremal_grid(extremal_fn, types, d, grid):
    """Extremals of the given continuous types over a compact (A-B, C, sign)
    grid at A+B=1; grid points the closed forms reject are skipped."""
    grid = integer(grid, "witness grid", 2, ContractError)
    for u in np.linspace(-1.0, 1.0, grid):
        A, B = (1 + u) / 2, (1 - u) / 2
        cmax = np.sqrt(A * B)
        for C in np.linspace(-cmax, cmax, grid):
            for sign in (+1, -1):
                for t in types:
                    try:
                        ex = extremal_fn(t, A, B, C, sign, d)
                    except ContractError:
                        continue
                    yield ex


def grid_rows(extremal_fn, types, d, grid):
    """Catalogue rows (id, coefficient vector) of extremal_grid."""
    return [(f"{ex.type}[{ex.params[0]:.4f},{ex.params[1]:.4f},"
             f"{ex.params[2]:.4f},{ex.sign:+d}]", ex.realized.vector())
            for ex in extremal_grid(extremal_fn, types, d, grid)]


def certificate(family, c: Coeffs, tol) -> Certificate:
    """An empty certificate for the state with coefficients c."""
    return Certificate(family, c.d, {
        "a_e": c.a_e, "a_12": c.a_12, "a_13": c.a_13, "a_23": c.a_23,
        "re_123": c.r, "im_123": c.s,
    }, tolerances=asdict(tol))


def witness_sweep(cert, c: Coeffs, rows, tol=DEFAULT_TOL):
    """Smallest eigenvalue of (id (x) W*)(rho) for every catalogue row W,
    rho = sum_sigma c_sigma X_sigma.

    Each image (id (x) X_sigma*)(rho) lies in span{I, d Omega}: its
    eigenvalue on Omega is g_sigma / d, g_sigma = Tr(rho X_sigma), and its
    trace, d g_e, g_e, g_e, d g_23, g_23, g_23, fixes its eigenvalue on the
    other d^2 - 1 directions.  Records the witness_sweep check at the scale
    ||rho||_F = sqrt(v . g) and returns (minima, whether it passes).
    """
    d = c.d
    v = c.vector()
    g = (float(d) ** CYCLES) @ v
    omega = g / d
    traces = np.array([d * g[0], g[0], g[0], d * g[3], g[3], g[3]])
    alpha = (traces - omega) / (d * d - 1)
    w = np.array([row for _, row in rows])
    mins = (w @ np.stack([alpha, omega], axis=1)).real.min(axis=1)
    lo = float(mins.min())
    verdict = classify(lo, float(np.sqrt(max((v @ g).real, 0.0))), tol)
    cert.add_check("witness_sweep", verdict, count=len(rows), min_eig=lo)
    return mins, verdict != "false"
