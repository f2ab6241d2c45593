"""The signed-permutation (hyperoctahedral) covariant channel family.

psi_{a,b,c} = a*psi0 + b*psi1 + c*psi2 + (1-a-b-c)*psi3 where
psi0(X) = Tr(X)/d * Id (depolarizing), psi1 = id, psi2 = transpose,
psi3 = diagonal pinching.  Every map in the family is unital and trace
preserving; membership in the positive / CP / CCP / PPT cones is decided by
explicit linear inequalities in (a, b, c), and PPT coincides with
entanglement breaking on this family.
"""

from dataclasses import dataclass

import numpy as np

from .certificate import Certificate
from .choi import LinMap
from .linalg import (ContractError, UnsupportedDimensionError, check_dense,
                     classify, finite_number, integer)

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
    """Extremal catalogue at dimension d."""

    d: int
    cp_vertices: tuple      # 4 extremal channels (Choi PSD)
    ccp_vertices: tuple     # their transpose compositions
    ppt_vertices: tuple     # 8 vertices of the PPT channel polytope
    wh_vertices: tuple      # 4 extremal PPT channels of the b+c subfamily


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
    d, a, b, c = co.d, co.a, co.b, co.c
    return (
        a,
        d / (d - 1) - a,
        b - (a / d - 1.0 / (d - 1)),
        1.0 - (d - 1) * a / d - b,
        c + a / d,
        a / d - c,
    )


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
    d = integer(d, "d", 2)
    e = d / (d - 1)
    f = 1.0 / (d - 1)
    cp = (
        HHCoeffs(d, 0.0, 1.0, 0.0),
        HHCoeffs(d, e, 0.0, f),
        HHCoeffs(d, 0.0, -f, 0.0),
        HHCoeffs(d, e, 0.0, -f),
    )
    ccp = tuple(v.swapped() for v in cp)
    g = 1.0 / (2 * (d - 1))
    h = 1.0 / (d * (d - 1))
    ppt = (
        (0.0, 0.0, 0.0),
        (d * g, g, -g),
        (d * g, -g, g),
        (d * g, -g, -g),
        (1.0, 1.0 / d, 1.0 / d),
        (1.0, 1.0 / d, -h),
        (1.0, -h, 1.0 / d),
        (e, 0.0, 0.0),
    )
    q = d * d + d - 2.0
    wh = (
        (1.0 / (d + 2), 1.0 / (d + 2)),
        (-2.0 / q, d / q),
        (-1.0 / q, -1.0 / q),
        (d / q, -2.0 / q),
    )
    return HHExtremals(d, cp, ccp, ppt, wh)


def wh_vertices(d):
    """The four extremal PPT channels of the a = 1-b-c subfamily, as
    HHCoeffs."""
    return tuple(HHCoeffs(d, 1.0 - b - c, b, c)
                 for b, c in extremals(d).wh_vertices)


def decide(co: HHCoeffs) -> Certificate:
    """Full certificate for a channel psi_{a,b,c} (d >= 3, CPTP required).

    EB equals PPT on this family, and the verdict is ppt's; the 8 extremal
    positive maps, as witnesses on the normalized Choi, only record their
    least eigenvalue as separable_choi.  Each check is classified from its
    own margin under the linalg boundary rule.
    """
    if co.d < 3:
        raise UnsupportedDimensionError("decide requires d >= 3")
    if not is_cptp(co):
        raise ContractError(
            "decide certifies channels; input is not CPTP "
            "(see is_cptp/is_positive for region membership)")
    cert = Certificate("hh", co.d, {"a": co.a, "b": co.b, "c": co.c})
    s = co.scale()
    margins = positivity_margins(co)
    pos = min(margins.values())
    tag = next((t for t, m in margins.items() if classify(m, s) == "false"),
               None)  # is_positive's tag
    cert.add_check("positive", classify(pos, s), margin=pos,
                   **({} if tag is None else {"tag": tag}))
    cp = min(cptp_margins(co))
    ccp = min(cptp_margins(co.swapped()))
    ppt = min(cp, ccp)
    for name, m in (("cp", cp), ("ccp", ccp), ("ppt", ppt), ("eb", ppt)):
        cert.add_check(name, classify(m, s), margin=m)

    rho = build_psi(co).choi(normalized=True)
    ext = extremals(co.d)
    for kind, vs in (("cp", ext.cp_vertices), ("ccp", ext.ccp_vertices)):
        for i, v in enumerate(vs, start=1):
            w = build_psi(v)
            lo = float(np.linalg.eigvalsh(w.id_tensor(rho, co.d))[0])
            cert.witnesses.append(
                {"id": f"extremal-{kind}-{i}",
                 "params": {"a": v.a, "b": v.b, "c": v.c},
                 "min_eig": lo})
    lo = min(w["min_eig"] for w in cert.witnesses)
    cert.add_check("separable_choi",
                   classify(lo, float(np.linalg.norm(rho))), min_eig=lo)
    cert.verdict = "EB" if cert.check_true("ppt") else "NOT-EB"
    return cert
