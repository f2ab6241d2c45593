"""The signed-permutation (hyperoctahedral) covariant channel family.

psi_{a,b,c} = a*psi0 + b*psi1 + c*psi2 + (1-a-b-c)*psi3 where
psi0(X) = Tr(X)/d * Id (depolarizing), psi1 = id, psi2 = transpose,
psi3 = diagonal pinching.  Every map in the family is unital and trace
preserving; membership in the positive / CP / CCP / PPT cones is decided by
explicit linear inequalities in (a, b, c), and PPT coincides with
entanglement breaking on this family.  The CP inequalities are the four
distinct eigenvalues of the normalized Choi matrix (`cptp_margins`), and
every check is read at one scale, max(|a|, |b|, |c|).

The family is closed under composition: the four maps span a commutative
algebra with psi2 o psi2 = psi1, psi3 o psi2 = psi2 o psi3 = psi3 o psi3 =
psi3, and psi0 o psi = psi o psi0 = psi0 for each of them (`compose`).  So
a witness image (id (x) psi_v)(C_psi) is the Choi matrix of psi_v o psi.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .certificate import Certificate
from .choi import LinMap
from .linalg import (ContractError, DimensionError, UnsupportedDimensionError,
                     check_dense, classify, finite_number, integer)

CONSTRAINT_TAGS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class HHCoeffs:
    """Coefficients (a, b, c) of psi_{a,b,c} as floats, d as an int; psi3
    weighs 1-a-b-c."""

    d: int
    a: float
    b: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "d", integer(self.d, "d", 2))
        for name in ("a", "b", "c"):
            object.__setattr__(self, name,
                               finite_number(getattr(self, name), name))

    def scale(self):
        """The boundary-rule scale: the largest of |a|, |b|, |c|."""
        return max(abs(self.a), abs(self.b), abs(self.c))

    def swapped(self):
        """Transpose-composed coefficients: psi_{a,b,c} o T = psi_{a,c,b}."""
        return HHCoeffs(self.d, self.a, self.c, self.b)


@dataclass(frozen=True)
class HHExtremals:
    """The eight extremal positive maps at dimension d, decide's witnesses."""

    d: int
    cp_vertices: tuple      # 4 extremal channels (Choi PSD)
    ccp_vertices: tuple     # their transpose compositions


def compose(outer: HHCoeffs, inner: HHCoeffs) -> HHCoeffs:
    """psi_outer o psi_inner, with w = 1 - a - b - c the psi3 weight:
    b' = b_o b_i + c_o c_i, c' = b_o c_i + c_o b_i,
    w' = w_o (1 - a_i) + (b_o + c_o) w_i, and a' = 1 - b' - c' - w'."""
    if outer.d != inner.d:
        raise DimensionError(
            f"cannot compose d = {outer.d} with d = {inner.d}")
    wo = 1.0 - outer.a - outer.b - outer.c
    wi = 1.0 - inner.a - inner.b - inner.c
    b = outer.b * inner.b + outer.c * inner.c
    c = outer.b * inner.c + outer.c * inner.b
    w = wo * (1.0 - inner.a) + (outer.b + outer.c) * wi
    return HHCoeffs(inner.d, 1.0 - b - c - w, b, c)


def build_psi(co: HHCoeffs) -> LinMap:
    """psi_{a,b,c} from its unnormalized Choi matrix a I/d + b sum_ij
    e_ij (x) e_ij + c F + (1-a-b-c) sum_i e_ii (x) e_ii.  The (ii),(ii)
    entries are summed as a (1/d) + (b + c) + (1-a-b-c), the order in which
    the action a Tr(X) I/d + b X + c X^T + (1-a-b-c) diag(X) sums them."""
    d, a, b, c = co.d, co.a, co.b, co.c
    check_dense(d * d)
    i = np.arange(d)
    ii = i * (d + 1)
    choi = np.diag(np.full(d * d, a * (1 / d), dtype=complex))
    choi[ii[:, None], ii] = b
    choi[i[:, None] * d + i, i * d + i[:, None]] = c
    choi[ii, ii] = a * (1 / d) + (b + c) + (1.0 - a - b - c)
    return LinMap(d, d, choi, family="hh")


def positivity_margins(co: HHCoeffs):
    """Slack of the six positivity inequalities; all >= 0 iff positive."""
    d, a, b, c = co.d, co.a, co.b, co.c
    return {
        1: min(a, d / (d - 1) - a),
        2: 1.0 - ((d - 2) * a / d + b + c),
        3: 1.0 - ((d - 2) * a / d + abs(b - c)),
        4: b + c + 1.0 / (d - 1),
        5: 1.0 - (b - (d - 1) * c),
        6: 1.0 - (c - (d - 1) * b),
    }


def is_positive(co: HHCoeffs):
    """Positivity of psi_{a,b,c} for d >= 3; returns (bool, violated tag)."""
    if co.d < 3:
        raise UnsupportedDimensionError(
            "positivity of this family is only characterized for d >= 3")
    s = co.scale()
    for tag, m in positivity_margins(co).items():
        if classify(m, s) == "false":
            return False, tag
    return True, None


def cptp_margins(co: HHCoeffs):
    """The four distinct eigenvalues of the normalized Choi matrix, times
    d/(d-1), d, d and d (multiplicities 1, d-1, d(d-1)/2, d(d-1)/2); all
    >= 0 iff CP.  They imply 0 <= a <= d/(d-1): a = d(m3 + m4)/2 and
    d/(d-1) - a = m1 + m2."""
    d, a, b, c = co.d, co.a, co.b, co.c
    return (b - (a / d - 1.0 / (d - 1)), 1.0 - (d - 1) * a / d - b,
            c + a / d, a / d - c)


def is_cptp(co: HHCoeffs):
    return classify(min(cptp_margins(co)), co.scale()) != "false"


def is_ccp(co: HHCoeffs):
    return is_cptp(co.swapped())


def is_ppt(co: HHCoeffs):
    return is_cptp(co) and is_ccp(co)


def on_boundary(co: HHCoeffs):
    """True if any CP/CCP constraint reads "boundary"."""
    s = co.scale()
    return any(classify(m, s) == "boundary"
               for m in cptp_margins(co) + cptp_margins(co.swapped()))


def extremals(d) -> HHExtremals:
    """The witnesses at d, built once per validated d and shared."""
    return _extremals(integer(d, "d", 2))


@functools.lru_cache(maxsize=16)
def _extremals(d):
    e = d / (d - 1)
    f = 1.0 / (d - 1)
    cp = (
        HHCoeffs(d, 0.0, 1.0, 0.0),
        HHCoeffs(d, e, 0.0, f),
        HHCoeffs(d, 0.0, -f, 0.0),
        HHCoeffs(d, e, 0.0, -f),
    )
    return HHExtremals(d, cp, tuple(v.swapped() for v in cp))


def ppt_vertices(d):
    """The 8 vertices of the PPT channel polytope."""
    d = integer(d, "d", 2)
    g = 1.0 / (2 * (d - 1))
    h = 1.0 / (d * (d - 1))
    return (
        HHCoeffs(d, 0.0, 0.0, 0.0),
        HHCoeffs(d, d * g, g, -g),
        HHCoeffs(d, d * g, -g, g),
        HHCoeffs(d, d * g, -g, -g),
        HHCoeffs(d, 1.0, 1.0 / d, 1.0 / d),
        HHCoeffs(d, 1.0, 1.0 / d, -h),
        HHCoeffs(d, 1.0, -h, 1.0 / d),
        HHCoeffs(d, d / (d - 1), 0.0, 0.0),
    )


def wh_vertices(d):
    """The four extremal PPT channels of the a = 1-b-c subfamily."""
    d = integer(d, "d", 2)
    q = d * d + d - 2.0
    return tuple(HHCoeffs(d, 1.0 - b - c, b, c) for b, c in (
        (1.0 / (d + 2), 1.0 / (d + 2)), (-2.0 / q, d / q),
        (-1.0 / q, -1.0 / q), (d / q, -2.0 / q)))


def decide(co: HHCoeffs) -> Certificate:
    """Full certificate for a channel psi_{a,b,c} (d >= 3, CPTP required).

    EB equals PPT on this family, and the verdict is ppt's; the 8 extremal
    positive maps, as witnesses on the normalized Choi, only record their
    least eigenvalue as separable_choi.  A witness image
    (id (x) psi_v)(rho) is the normalized Choi matrix of compose(v, co),
    real symmetric since (a, b, c) are real, so each least eigenvalue is one
    real eigensolve.  Each check is classified from its own margin under the
    linalg boundary rule at co.scale().
    """
    if co.d < 3:
        raise UnsupportedDimensionError("decide requires d >= 3")
    if not is_cptp(co):
        raise ContractError(
            "decide certifies channels; input is not CPTP "
            "(see is_cptp/is_positive for region membership)")
    cert = Certificate("hh", co.d, {"a": co.a, "b": co.b, "c": co.c})
    s = co.scale()
    pos, tag = min(positivity_margins(co).values()), is_positive(co)[1]
    cert.add_check("positive", classify(pos, s), margin=pos,
                   **({} if tag is None else {"tag": tag}))
    cp, ccp = min(cptp_margins(co)), min(cptp_margins(co.swapped()))
    ppt = min(cp, ccp)
    for name, m in (("cp", cp), ("ccp", ccp), ("ppt", ppt), ("eb", ppt)):
        cert.add_check(name, classify(m, s), margin=m)

    ext = extremals(co.d)
    for kind, vs in (("cp", ext.cp_vertices), ("ccp", ext.ccp_vertices)):
        for i, v in enumerate(vs, start=1):
            image = build_psi(compose(v, co)).choi(normalized=True).real
            lo = float(np.linalg.eigvalsh(image)[0])
            cert.witnesses.append(
                {"id": f"extremal-{kind}-{i}",
                 "params": {"a": v.a, "b": v.b, "c": v.c},
                 "min_eig": lo})
    lo = min(w["min_eig"] for w in cert.witnesses)
    cert.add_check("separable_choi", classify(lo, s), min_eig=lo)
    cert.verdict = "EB" if cert.check_true("ppt") else "NOT-EB"
    return cert
