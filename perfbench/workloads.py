"""Seeded inputs, dense expected verdicts and certificate requests for the
covwit benchmark.

Every input is drawn from a seeded generator and classified before it is
timed by dense linear algebra that does not go through the closed forms the
certificates use: partial transposes and eigenvalues of the invariant or Choi
matrix, and for werner3 the dense image of the L0 witness.  Inputs whose
deciding eigenvalue lies within MARGIN of zero are redrawn, so a tolerance
band can never decide a verdict.
"""

import sys
from dataclasses import dataclass

import numpy as np

MARGIN = 1e-6
W3_GRID = 64    # the library default of detect_entanglement_w3
QUO_GRID = 16   # the CLI default, passed explicitly to decide_quo

ENTANGLED = "ENTANGLED"
NPT = "NPT-ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE-AT-RESOLUTION"
SEPARABLE = "SEPARABLE"
EB, NOT_EB = "EB", "NOT-EB"

# The canonical werner3 witness L0 as (ae, a12, a13, a23, re123, im123).
L0 = (1.0, 1.0, -1.0, 1.0, -1.0, 0.0)

# werner3 states are p * rho_t + (1 - p) * I / d^3.  Windows in (t, p) per
# dimension and verdict; t_max(3) = 5.507 and t_max(4) = 4.239 are the edges
# of A-BC PPT for rho_t.  The NPT windows sit below t_max, past the B-AC PPT
# edge and before any extremal witness at grid 16 or 64 goes negative.
W3_WINDOWS = {
    3: {ENTANGLED: (2.2, 16.5, 0.97, 1.0),
        NPT: (2.75, 4.95, 0.77, 0.81),
        INCONCLUSIVE: (2.2, 16.5, 0.05, 0.35)},
    4: {ENTANGLED: (1.7, 12.7, 0.97, 1.0),
        NPT: (2.12, 3.81, 0.67, 0.73),
        INCONCLUSIVE: (1.7, 12.7, 0.05, 0.35)},
}


@dataclass(frozen=True)
class Request:
    """One certificate request: the program sees family, d, grid, coeffs."""

    family: str         # "hh" | "werner3" | "quo"
    d: int
    grid: int           # witness grid; 0 for hh, and for the CLI default
    coeffs: tuple       # hh: (a, b, c); others: (ae, a12, a13, a23, re, im)
    expected: str


@dataclass(frozen=True)
class Workload:
    """A closed loop over rounds of slots.  A round holds one request per
    (family, d) slot, so every run measures the same mix of sizes; the
    target verdict of a family rotates from round to round."""

    name: str
    slots: tuple        # ((family, d), ...): one round
    grid: dict          # family -> grid (0 = CLI default)
    cli: bool
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("w3-sweep", (("werner3", 3), ("werner3", 4)),
             {"werner3": W3_GRID}, False,
             "werner3 witness sweep at grid 64; the state-independent "
             "catalogue does most of the work and is rebuilt per call"),
    Workload("quo-sep", (("quo", 2), ("quo", 3)), {"quo": QUO_GRID}, False,
             "quo separability at grid 16; dense CP/CCP checks per catalogue "
             "row at d=2, closed forms at d=3"),
    Workload("hh-eb", (("hh", 3), ("hh", 5), ("hh", 8)), {"hh": 0}, False,
             "hh entanglement breaking; no catalogue, Choi builds and dense "
             "eigensolves, the bypass for werner3/quo changes"),
    Workload("cli-cold", (("hh", 3), ("werner3", 3), ("quo", 3)),
             {"hh": 0, "werner3": 0, "quo": 0}, True,
             "one fresh covwit certify process per request; import cost, "
             "cli module and certificate file writes"),
)}

TARGETS = {"werner3": (ENTANGLED, NPT, INCONCLUSIVE),
           "quo": (SEPARABLE, ENTANGLED),
           "hh": (EB, NOT_EB)}


# ---------------------------------------------------------------- dense truth

def _min_eig(x):
    return float(np.linalg.eigvalsh((x + x.conj().T) / 2)[0])


def _pt_mins(x, d):
    from covwit.linalg import partial_transpose

    return [_min_eig(partial_transpose(x, [d, d, d], k)) for k in range(3)]


def _l0_image(rho, d):
    """(id_d (x) L0*)(rho) from the dense Choi matrix of L0: M_d -> M_d^2.

    With C[(i,k),(j,l)] the Choi matrix, L*(Y)_ji = sum_kl C[i,k,j,l] Y_lk.
    """
    from covwit.werner3 import S3Coeffs, invariant_matrix

    n = d * d
    c4 = invariant_matrix(S3Coeffs(d, *L0[:4], complex(*L0[4:]))).reshape(
        d, n, d, n)
    out = np.einsum("ikjl,albk->ajbi", c4, rho.reshape(d, n, d, n))
    return out.reshape(d * d, d * d)


def expected_w3(d, coeffs):
    """(verdict, margin) of an invariant werner3 state from dense matrices."""
    from covwit.werner3 import S3Coeffs, invariant_matrix

    ae, a12, a13, a23, r, s = coeffs
    rho = invariant_matrix(S3Coeffs(d, ae, a12, a13, a23, complex(r, s)))
    state = _min_eig(rho)
    pts = _pt_mins(rho, d)
    w = _min_eig(_l0_image(rho, d))
    margin = min([state, abs(w)] + [abs(m) for m in pts])
    if w < 0:
        return ENTANGLED, margin
    if min(pts) < 0:
        return NPT, margin
    return INCONCLUSIVE, margin


def expected_quo(d, coeffs):
    from covwit.quo import QuoCoeffs, invariant_matrix

    ae, a12, a13, a23, r, s = coeffs
    rho = invariant_matrix(QuoCoeffs(d, ae, a12, a13, a23, complex(r, s)))
    state = _min_eig(rho)
    pt = _pt_mins(rho, d)[0]
    return (SEPARABLE if pt >= 0 else ENTANGLED), min(state, abs(pt))


def hh_choi(d, coeffs):
    """Unnormalized Choi matrix of psi_{a,b,c}, one matrix unit at a time."""
    a, b, c = coeffs
    w = 1.0 - a - b - c
    c4 = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = 1.0
            c4[i, :, j, :] = (a * (i == j) / d * np.eye(d) + b * e + c * e.T
                              + w * np.diag(np.diag(e)))
    return c4.reshape(d * d, d * d)


def expected_hh(d, coeffs):
    from covwit.linalg import partial_transpose

    choi = hh_choi(d, coeffs)
    pt = _min_eig(partial_transpose(choi, [d, d], 1))
    return (EB if pt >= 0 else NOT_EB), min(_min_eig(choi), abs(pt))


EXPECTED = {"werner3": expected_w3, "quo": expected_quo, "hh": expected_hh}


# ------------------------------------------------------------------ sampling

def _draw_w3(rng, d, target):
    t_lo, t_hi, p_lo, p_hi = W3_WINDOWS[d][target]
    t = rng.uniform(t_lo, t_hi)
    p = rng.uniform(p_lo, p_hi)
    pf = 1.0 / (d**3 + (t + 1) * d**2 + 2 * t)
    mix = (1.0 - p) / d**3
    return (p * pf * (d + t) / d + mix, 0.0, p * pf, 0.0, p * pf * t / d, 0.0)


def _draw_quo(rng, d, target):
    eps = rng.uniform(0.05, 0.5)
    v = eps * rng.standard_normal(5)
    ae, a12, a13, a23, r, s = 1.0, *v
    tr = d**3 * ae + d**2 * (a12 + a13 + a23) + 2 * d * r
    return tuple(x / tr for x in (ae, a12, a13, a23, r, s))


def _draw_hh(rng, d, target):
    a = rng.uniform(0, d / (d - 1))
    b = rng.uniform(a / d - 1 / (d - 1), 1 - (d - 1) * a / d)
    c = rng.uniform(-a / d, a / d)
    return (a, b, c)


DRAW = {"werner3": _draw_w3, "quo": _draw_quo, "hh": _draw_hh}


def draw(rng, family, d, target, grid, max_tries=10000):
    """A request whose dense verdict is target, with every deciding
    eigenvalue at least MARGIN away from zero."""
    for _ in range(max_tries):
        coeffs = tuple(float(x) for x in DRAW[family](rng, d, target))
        verdict, margin = EXPECTED[family](d, coeffs)
        if verdict == target and margin > MARGIN:
            return Request(family, d, grid, coeffs, verdict)
    raise RuntimeError(f"no {family} d={d} input with verdict {target}")


class Pool:
    """The seeded request sequence of a workload, generated ahead of use.

    Request i fills slot i % len(slots) of round i // len(slots); the same
    seed gives the same sequence however it is split into batches.
    """

    def __init__(self, workload, seed, stream=0):
        self.workload = workload
        self.rng = np.random.default_rng([seed, stream])
        self.requests = []

    def extend(self, n):
        w = self.workload
        while len(self.requests) < n:
            i = len(self.requests)
            family, d = w.slots[i % len(w.slots)]
            k = i // len(w.slots)
            targets = TARGETS[family]
            self.requests.append(draw(self.rng, family, d,
                                      targets[k % len(targets)],
                                      w.grid[family]))
        return self.requests


# ------------------------------------------------------------------ requests

def certify(req):
    """Certificate bytes for one request through the public library API."""
    if req.family == "hh":
        from covwit import hh

        return hh.decide(hh.HHCoeffs(req.d, *req.coeffs)).to_json()
    ae, a12, a13, a23, r, s = req.coeffs
    if req.family == "werner3":
        from covwit import werner3

        c = werner3.S3Coeffs(req.d, ae, a12, a13, a23, complex(r, s))
        return werner3.detect_entanglement_w3(c, grid=req.grid).to_json()
    from covwit import quo

    c = quo.QuoCoeffs(req.d, ae, a12, a13, a23, complex(r, s))
    return quo.decide_quo(c, grid=req.grid).to_json()


def cli_args(req, json_path):
    """Arguments after the program name for `covwit certify ...`; a grid of
    0 leaves the CLI default in place."""
    args = ["certify", req.family, f"--d={req.d}"]
    if req.family == "hh":
        args += [f"--{k}={v!r}" for k, v in zip("abc", req.coeffs)]
    else:
        args.append("--coeffs=" + ",".join(repr(v) for v in req.coeffs))
        if req.grid:
            args.append(f"--grid={req.grid}")
    return args + [f"--json={json_path}"]


def cli_command(req, json_path):
    return [sys.executable, "-m", "covwit.cli"] + cli_args(req, json_path)
