"""End-to-end acceptance suite: closed-form region tests against independent
numerical oracles at scale, exact identity reproduction, and runtime budgets.

Each test states its sampling size and tolerance explicitly; points within
the stated band of a region boundary are excluded before comparing verdicts,
and every remaining disagreement is a failure.
"""

import time

import numpy as np
import pytest

from covwit import hh, oracle, quo, s3, werner3
from covwit.choi import max_entangled
from covwit.linalg import flip, identity, partial_transpose
from covwit.twirl import (BASES, PERMS, build_T, cond_expect, diag_units,
                          oo_basis, uubaru_basis)


def batched_min_eig(mats, chunk=4096):
    out = np.empty(mats.shape[0])
    for k in range(0, mats.shape[0], chunk):
        m = mats[k:k + chunk]
        m = (m + np.conj(np.swapaxes(m, -1, -2))) / 2
        out[k:k + chunk] = np.linalg.eigvalsh(m)[:, 0].real
    return out


def hh_choi_basis(d):
    """Normalized Choi matrices of (psi0, psi1, psi2, psi3)."""
    return np.stack([identity(d * d) / d**2, max_entangled(d),
                     flip(d) / d, diag_units(d) / d])


def hh_margins_array(d, abc):
    """CPTP margins for an (n, 3) array of coefficient triples."""
    a, b, c = abc[:, 0], abc[:, 1], abc[:, 2]
    return np.stack([
        a, d / (d - 1) - a,
        b - (a / d - 1.0 / (d - 1)), 1.0 - (d - 1) * a / d - b,
        c + a / d, a / d - c,
    ], axis=1)


def test_criterion_01_hh_cptp_region_10k_per_dim():
    """Closed-form CPTP verdict equals PSD-ness of the normalized Choi on
    10,000 uniform triples in [-2,2]^3 for d in {3,4,5}; points with any
    constraint within 1e-9 of tight are excluded. Budget: 30 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    band = 1e-9
    for d in (3, 4, 5):
        abc = rng.uniform(-2, 2, size=(10000, 3))
        margins = hh_margins_array(d, abc)
        keep = np.abs(margins).min(axis=1) > band
        closed = margins[keep].min(axis=1) > 0
        basis = hh_choi_basis(d)
        w = 1.0 - abc[keep].sum(axis=1)
        coeffs = np.concatenate([abc[keep], w[:, None]], axis=1)
        chois = np.tensordot(coeffs, basis, axes=([1], [0]))
        numeric = batched_min_eig(chois, chunk=2000) >= -band
        assert np.array_equal(closed, numeric), d
    assert time.time() - t0 < 30.0


@pytest.mark.parametrize("d", [3, 4])
def test_criterion_02_hh_positivity_facets(d):
    """Outside each positivity facet (1,000 points violating only that
    facet), the designated counterexample vector yields an eigenvalue below
    -1e-9; for 1,000 interior points, 1,000-sample pure-state sweeps stay
    above -1e-9."""
    rng = np.random.default_rng(200 + d)
    n_per = 1000
    outside = {t: [] for t in hh.CONSTRAINT_TAGS}
    lo, hi = np.array([-0.4, -1.2, -1.2]), \
        np.array([d / (d - 1) + 0.4, 1.2, 1.2])
    inside = []
    cap = 2_000_000
    draws = 0
    while (any(len(v) < n_per for v in outside.values())
           or len(inside) < n_per) and draws < cap:
        batch = rng.uniform(lo, hi, size=(20000, 3))
        draws += len(batch)
        margins = np.stack([
            np.minimum(batch[:, 0], d / (d - 1) - batch[:, 0]),
            1.0 - ((d - 2) * batch[:, 0] / d + batch[:, 1] + batch[:, 2]),
            1.0 - ((d - 2) * batch[:, 0] / d
                   + np.abs(batch[:, 1] - batch[:, 2])),
            batch[:, 1] + batch[:, 2] + 1.0 / (d - 1),
            1.0 - (batch[:, 1] - (d - 1) * batch[:, 2]),
            1.0 - (batch[:, 2] - (d - 1) * batch[:, 1]),
        ], axis=1)
        neg = margins < -1e-6
        pos = margins > 1e-6
        single = neg.sum(axis=1) == 1
        for t in hh.CONSTRAINT_TAGS:
            if len(outside[t]) < n_per:
                sel = batch[single & neg[:, t - 1]]
                outside[t].extend(map(tuple, sel[:n_per - len(outside[t])]))
        if len(inside) < n_per:
            sel = batch[pos.all(axis=1)]
            inside.extend(map(tuple, sel[:n_per - len(inside)]))
    assert len(inside) == n_per
    for t in hh.CONSTRAINT_TAGS:
        assert len(outside[t]) == n_per, t

    # facet counterexamples
    for t in hh.CONSTRAINT_TAGS:
        v = oracle.counterexample_vector(t, d)
        x = np.outer(v, v.conj())
        xt, xd, tr = x.T, np.diag(np.diag(x)), 1.0
        pts = np.array(outside[t])
        a, b, c = pts[:, 0:1, None], pts[:, 1:2, None], pts[:, 2:3, None]
        w = 1.0 - a - b - c
        outs = (a * tr / d * np.eye(d) + b * x + c * xt + w * xd)
        lows = batched_min_eig(outs)
        assert lows.max() < -1e-9, (t, lows.max())

    # interior sweep: 1,000 pure states per interior point
    vs = np.stack([oracle.random_pure_state(rng, d) for _ in range(1000)])
    xs = np.einsum("ki,kj->kij", vs, vs.conj())
    xts = np.swapaxes(xs, 1, 2)
    xds = np.zeros_like(xs)
    idx = np.arange(d)
    xds[:, idx, idx] = xs[:, idx, idx]
    eye = np.eye(d)
    pts = np.array(inside)
    worst = 0.0
    for k in range(0, n_per, 100):
        p = pts[k:k + 100]
        a = p[:, 0][:, None, None, None]
        b = p[:, 1][:, None, None, None]
        c = p[:, 2][:, None, None, None]
        w = 1.0 - a - b - c
        outs = a / d * eye + b * xs + c * xts + w * xds
        lows = batched_min_eig(outs.reshape(-1, d, d))
        worst = min(worst, lows.min())
    assert worst >= -1e-9


def test_criterion_03_hh_extremal_accounting():
    """Exactly 8 positive-extremal maps: 4 with PSD Choi, 4 with PSD partial
    transpose; each PPT vertex passes both CPTP inequality systems; all 28
    midpoints stay PPT. Tolerance 1e-10."""
    d = 3
    ext = hh.extremals(d)
    assert len(ext.cp_vertices) + len(ext.ccp_vertices) == 8

    def choi_min(co):
        return np.linalg.eigvalsh(
            hh.build_psi(co).choi(normalized=True))[0].real

    def pt_min(co):
        c = hh.build_psi(co).choi(normalized=True)
        return np.linalg.eigvalsh(
            partial_transpose(c, [d, d], 1))[0].real

    for v in ext.cp_vertices:
        assert choi_min(v) >= -1e-10
    for v in ext.ccp_vertices:
        assert pt_min(v) >= -1e-10
    vs = hh.ppt_vertices(d)
    assert len(vs) == 8
    for v in vs:
        for co in (v, v.swapped()):
            assert min(hh.cptp_margins(co)) >= -1e-10
    mids = [(vs[i], vs[j]) for i in range(8) for j in range(i + 1, 8)]
    assert len(mids) == 28
    for x, y in mids:
        mid = hh.HHCoeffs(d, (x.a + y.a) / 2, (x.b + y.b) / 2,
                          (x.c + y.c) / 2)
        assert min(hh.cptp_margins(mid)) >= -1e-10
        assert min(hh.cptp_margins(mid.swapped())) >= -1e-10


def test_criterion_04_hh_ppt_equals_eb_10k():
    """On 10,000 random CPTP triples (d=3) the 8-witness separability
    verdict on the Choi equals the closed-form PPT verdict, excluding
    boundary triples."""
    d = 3
    rng = np.random.default_rng(400)
    # sample CPTP triples directly from the tetrahedron bounds
    triples = []
    while len(triples) < 10000:
        a = rng.uniform(0, d / (d - 1), size=20000)
        b = rng.uniform(-1 / (d - 1), 1, size=20000)
        c = rng.uniform(-0.5, 0.5, size=20000)
        abc = np.stack([a, b, c], axis=1)
        m = hh_margins_array(d, abc)
        ok = (m.min(axis=1) > 1e-9)
        # also require distance from the CCP boundary to fix the PPT verdict
        msw = hh_margins_array(d, abc[:, [0, 2, 1]])
        ok &= np.abs(msw).min(axis=1) > 1e-9
        triples.extend(map(tuple, abc[ok][:10000 - len(triples)]))
    abc = np.array(triples)

    ppt = hh_margins_array(d, abc[:, [0, 2, 1]]).min(axis=1) > 0

    basis = hh_choi_basis(d)
    ext = hh.extremals(d)
    witnesses = list(ext.cp_vertices) + list(ext.ccp_vertices)
    # (id (x) W)(basis Choi) for each witness and basis element
    k = np.stack([
        np.stack([hh.build_psi(wv).id_tensor(bc, d) for bc in basis])
        for wv in witnesses])  # (8, 4, d^2, d^2)
    w = 1.0 - abc.sum(axis=1)
    coeffs = np.concatenate([abc, w[:, None]], axis=1)  # (n, 4)
    sep = np.empty(len(coeffs), dtype=bool)
    for s in range(0, len(coeffs), 2000):
        outs = np.einsum("nc,wcij->nwij", coeffs[s:s + 2000], k)
        n, nw, m, _ = outs.shape
        lows = batched_min_eig(outs.reshape(-1, m, m)).reshape(n, nw)
        sep[s:s + 2000] = lows.min(axis=1) >= -1e-9
    assert np.array_equal(ppt, sep)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_criterion_05_w3_positivity_oracle_10k(d):
    """Closed-form positivity of sum a_sigma L_sigma equals PSD-ness of
    L(e_11) on 10,000 random tuples, excluding near-boundary tuples."""
    rng = np.random.default_rng(500 + d)
    v = rng.uniform(-1, 1, size=(10000, 6))
    ae, a12, a13, a23, r, s = (v[:, i] for i in range(6))
    qabs2 = (a23 + r)**2 + s**2
    margins = np.stack([
        ae + a12, ae + a13, ae - np.abs(a23),
        ae + a12 + a13 + a23 + 2 * r,
        (ae + a12) * (ae + a13) - qabs2,
    ], axis=1)
    keep = np.abs(margins).min(axis=1) > 1e-6
    closed = margins[keep].min(axis=1) > 0

    e11 = np.zeros((d, d))
    e11[0, 0] = 1.0
    le = np.stack([werner3.build_L(s_, d)(e11) for s_ in PERMS])
    q = v[keep, 4] + 1j * v[keep, 5]
    cvec = np.stack([v[keep, 0], v[keep, 1], v[keep, 2], v[keep, 3],
                     q, q.conjugate()], axis=1)
    outs = np.tensordot(cvec, le, axes=([1], [0]))
    numeric = batched_min_eig(outs, chunk=2000) >= -1e-9
    assert np.array_equal(closed, numeric)


@pytest.mark.parametrize("d", [3, 4])
def test_criterion_06_table2_isomorphisms(d):
    """X PSD iff its F blocks are PSD; X^{T_A} PSD iff its G blocks are.
    Both directions on 1,000 random tuples, tolerance 1e-9."""
    rng = np.random.default_rng(600 + d)
    for _ in range(1000):
        v = rng.uniform(-1, 1, size=6)
        c = werner3.S3Coeffs(d, v[0], v[1], v[2], v[3],
                             complex(v[4], v[5]))
        x = werner3.invariant_matrix(c)
        f = s3.F_iso(c).min_margin()
        g = s3.G_iso(c).min_margin()
        if abs(f) > 1e-8:
            assert (f > 0) == (np.linalg.eigvalsh(x)[0].real >= -1e-9)
        if abs(g) > 1e-8:
            xa = partial_transpose(x, [d, d, d], 0)
            assert (g > 0) == (np.linalg.eigvalsh(xa)[0].real >= -1e-9)


def test_criterion_07_rho_t_certificate():
    """d=3, t=1: A-BC and C-AB PPT hold, B-AC fails, the canonical witness
    reproduces min eigenvalue -(2/3)/47 within 1e-9, verdict ENTANGLED."""
    c = werner3.rho_t_coeffs(3, 1.0)
    rho = werner3.invariant_matrix(c)
    cert = werner3.detect_entanglement_w3(c, grid=8)
    assert cert.check_true("ppt_A-BC")
    assert cert.check_true("ppt_C-AB")
    assert not cert.check_true("ppt_B-AC")
    assert cert.verdict == "ENTANGLED"
    # independent spectrum: apply the adjoint witness map to the matrix
    w = werner3.build_map(werner3.witness_L0(3)).adjoint()
    lows = np.linalg.eigvalsh(w.id_tensor(rho, 3))
    assert abs(lows[0].real + (2 / 3) / 47) < 1e-9
    assert abs(cert.witnesses[0]["min_eig"] + (2 / 3) / 47) < 1e-9


def test_criterion_08_t_max_bound():
    """The threshold for A-BC PPT of rho_t at d=3 is at least the
    dimension-uniform bound 3.89."""
    assert werner3.t_max(3) >= 3.89


def test_criterion_09_quo_extremals_and_ppt_states():
    """Every Type III/IV (d in {3,4}) and Type I'/II' (d=2) extremal over a
    32x32 (A-B, C) grid with both signs, plus the fixed Type I/II tuples, is
    CP or CCP by numerical PSD at 1e-9; 10,000 random A-BC-PPT invariant
    states (d=3) trigger zero witness violations."""
    def cp_ccp_row(r):
        return quo.is_cp_quo(r), quo.is_ccp_quo(r), r.vector()

    for d in (2, 3, 4):
        ts = np.stack([build_T(s, d) for s in PERMS])
        rows = []
        if d >= 3:
            for t in ("I", "II"):
                ex = quo.extremal_quo(t, d=d)
                rows.append(cp_ccp_row(ex))
            types = ("III", "IV")
        else:
            types = ("I'", "II'")
        for u in np.linspace(-1, 1, 32):
            a_, b_ = (1 + u) / 2, (1 - u) / 2
            cmax = np.sqrt(a_ * b_)
            for c_ in np.linspace(-cmax, cmax, 32):
                for sg in (1, -1):
                    for t in types:
                        ex = quo.extremal_quo(t, a_, b_, c_, sg, d)
                        rows.append(cp_ccp_row(ex))
        assert rows
        coeffs = np.array([r[2] for r in rows])
        xs = np.tensordot(coeffs, ts, axes=([1], [0]))
        x_lows = batched_min_eig(xs, chunk=512)
        pts = np.stack([partial_transpose(x, [d, d, d], 0) for x in xs])
        pt_lows = batched_min_eig(pts, chunk=512)
        for i, (cp, ccp, _) in enumerate(rows):
            assert cp or ccp, (d, i)
            if cp:
                assert x_lows[i] >= -1e-9, (d, i)
            if ccp:
                assert pt_lows[i] >= -1e-9, (d, i)

    # random PPT invariant states, d = 3
    d = 3
    rng = np.random.default_rng(900)
    basis = uubaru_basis(d)
    gram = basis.gram()
    tconj = np.stack([b.conj() for b in basis.elements])
    ts = np.stack([build_T(s, d) for s in PERMS])

    states = []
    while len(states) < 10000:
        hs = np.tensordot(rng.uniform(-1, 1, size=(4000, 6)), ts,
                          axes=([1], [0]))
        hs = (hs + np.conj(np.swapaxes(hs, 1, 2))) / 2
        xs = np.einsum("nij,njk->nik", hs, hs)  # PSD invariant matrices
        v = np.einsum("iab,nab->ni", tconj, xs)
        cs = np.linalg.solve(gram, v.T).T  # (n, 6) ordered as PERMS
        tr = np.einsum("nii->n", xs).real
        cs /= tr[:, None]
        for row in cs:
            c = quo.QuoCoeffs(d, row[0].real, row[1].real, row[2].real,
                              row[3].real, row[4])
            margins = c.margins6(c.d, c.as_tuple6())
            g = s3.G_iso(s3.relabel(
                werner3.S3Coeffs(d, c.a_e, c.a_12, c.a_13, c.a_23, c.a_123),
                "13")).min_margin()
            if g > 1e-8:  # strictly A-BC PPT
                states.append(row)
            if len(states) == 10000:
                break
    svec = np.array(states)

    kmat = np.stack([
        np.stack([quo.build_M(s, d).adjoint().id_tensor(t, d)
                  for t in ts]) for s in PERMS])  # (6, 6, d^2, d^2)
    wit = quo._witness_rows(d, grid=4)
    wvec = np.array([quo.QuoCoeffs.from_tuple6(d, t).vector()
                     for _, t in wit])
    worst = 0.0
    for s in range(0, len(svec), 500):
        z = np.einsum("nt,stij->nsij", svec[s:s + 500], kmat)
        outs = np.einsum("ws,nsij->nwij", wvec, z)
        n, nw, m, _ = outs.shape
        lows = batched_min_eig(outs.reshape(-1, m, m), chunk=8192)
        worst = min(worst, lows.min())
    assert worst >= -1e-9


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_criterion_10_oo_identities(d):
    """The twirled product state identity and the A-matrix decomposition
    hold entrywise to 1e-12."""
    xi = np.zeros(d, dtype=complex)
    xi[0] = 1 / np.sqrt(2)
    xi[1] = 1j / np.sqrt(2)
    psi = np.kron(xi, xi)
    tw = cond_expect(np.outer(psi, psi.conj()), oo_basis(d))
    p2 = oo_basis(d).elements[1]
    assert np.abs(tw - p2 / (d * (d + 1) // 2 - 1)).max() <= 1e-12
    choi2 = hh.build_psi(hh.wh_vertices(d)[1]).choi(normalized=True)
    assert np.abs(choi2 - tw).max() <= 1e-12
    ones = np.ones(d)
    a1 = (np.ones((d, d)) + 2 * np.eye(d)) / (d + 2)
    decomp = np.outer(ones, ones) / (d + 2) + 2 * np.eye(d) / (d + 2)
    assert np.abs(a1 - decomp).max() <= 1e-12


def test_criterion_11_twirl_laws_and_mc():
    """Idempotence, trace preservation, Hermiticity preservation within
    1e-10 for every family basis; Monte Carlo Haar twirl within 1e-2 of
    the conditional expectation at n = 100,000 (d=3)."""
    rng = np.random.default_rng(1100)
    for d in (2, 3):
        for name, build in BASES.items():
            basis = build(d)
            x = oracle.random_hermitian(rng, basis.dim)
            p1 = cond_expect(x, basis)
            assert np.abs(p1 - cond_expect(p1, basis)).max() <= 1e-10, name
            assert abs(np.trace(p1) - np.trace(x)) <= 1e-10, name
            assert np.abs(p1 - p1.conj().T).max() <= 1e-10, name
    d = 3
    x = oracle.random_hermitian(rng, d**3)
    exact = cond_expect(x, BASES["uuu"](d))
    emp = oracle.haar_twirl_mc(x, "uuu", n=100000, seed=11)
    assert np.abs(emp - exact).max() <= 1e-2 * max(1.0, np.abs(x).max())


def test_criterion_12_d2_relation_and_quo_oracle():
    """The d=2 six-term relation vanishes exactly in both the V and T
    pictures (integer matrices); the d=2 closed-form positivity test matches
    an eigensolver oracle on 10,000 random tuples."""
    from covwit.twirl import build_V
    eps = {"e": 1, "12": -1, "13": -1, "23": -1, "123": 1, "132": 1}
    assert np.abs(sum(eps[s] * build_V(s, 2) for s in PERMS)).max() == 0.0
    assert np.abs(sum(eps[s] * build_T(s, 2) for s in PERMS)).max() == 0.0

    d = 2
    rng = np.random.default_rng(1200)
    e11 = np.zeros((d, d))
    e11[0, 0] = 1.0
    me = np.stack([quo.build_M(s, d)(e11) for s in PERMS])
    v = rng.uniform(-1, 1, size=(10000, 6))
    q = v[:, 4] + 1j * v[:, 5]
    cvec = np.stack([v[:, 0], v[:, 1], v[:, 2], v[:, 3], q,
                     q.conjugate()], axis=1)
    outs = np.tensordot(cvec, me, axes=([1], [0]))
    numeric = batched_min_eig(outs) >= -1e-9
    checked = 0
    for i in range(10000):
        c = quo.QuoCoeffs(d, v[i, 0], v[i, 1], v[i, 2], v[i, 3],
                          complex(v[i, 4], v[i, 5]))
        if any(abs(m) < 1e-6 for m in c.margins6(c.d, c.as_tuple6())):
            continue
        assert quo.is_positive_quo(c) == numeric[i], i
        checked += 1
    assert checked > 9000


def test_criterion_13_selftest_full_runtime():
    """`selftest --level full` passes in under 5 minutes."""
    t0 = time.time()
    ok, results = oracle.selftest(seed=0, level="full", out=None)
    dt = time.time() - t0
    assert ok, [(n, det) for n, passed, det, _ in results if not passed]
    assert dt < 300.0, dt
