"""Independent brute-force verifiers: sampled positivity checks and Monte
Carlo Haar twirling.  These deliberately avoid the closed forms they verify.
"""

import time

import numpy as np

from .choi import LinMap
from .linalg import (EQ_TOL, ContractError, classify, integer, is_psd,
                     partial_transpose)
from .twirl import BASES, cond_expect, family_dim, oo_basis

MC_BATCH = 512  # group elements per stacked conjugation


def rng_from(seed):
    return np.random.default_rng(seed)


def random_unitary(rng, d):
    """Haar unitary via QR of a complex Gaussian matrix, with the R diagonal
    phase folded back in so the distribution is exactly Haar."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_orthogonal(rng, d):
    """Haar orthogonal via QR of a real Gaussian matrix with sign fix."""
    z = rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def random_signed_permutation(rng, d):
    p = rng.permutation(d)
    signs = rng.choice([-1.0, 1.0], size=d)
    m = np.zeros((d, d))
    m[p, np.arange(d)] = signs
    return m


def random_pure_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def brute_positive_orbit(m: LinMap):
    """Positivity via a single orbit representative: valid only for families
    whose symmetry group is transitive on pure input states."""
    if m.family not in ("werner3-L", "quo-M"):
        raise ContractError(
            "orbit oracle requires a transitive family (werner3-L or quo-M); "
            f"got {m.family!r}")
    e11 = np.zeros((m.d_in, m.d_in), dtype=complex)
    e11[0, 0] = 1.0
    return is_psd(m(e11))


def brute_positive_sample(m: LinMap, n=1000, seed=0):
    """One-sided sampling oracle: min output eigenvalue over Haar-random pure
    states, at the scale ||output||_F as in is_psd.  False is conclusive."""
    rng = rng_from(seed)
    worst, scale = np.inf, 0.0
    for _ in range(n):
        v = random_pure_state(rng, m.d_in)
        out = m(np.outer(v, v.conj()))
        lo = float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0])
        if lo < worst:
            worst, scale = lo, float(np.linalg.norm(out))
    return classify(worst, scale) != "false", worst


def _batched_conjugation_average(x, gens):
    """Mean of g x g* over a generator yielding stacked (k, n, n) arrays."""
    acc = np.zeros_like(x)
    total = 0
    for g in gens:
        acc += np.einsum("kij,jl,kml->im", g, x, g.conj(), optimize=True)
        total += g.shape[0]
    return acc / total


def _stack(fn, rng, d, count):
    return np.stack([fn(rng, d) for _ in range(count)])


def haar_twirl_mc(x, family, n=10000, seed=0):
    """Empirical twirl: average of n random-group-element conjugations.

    family: 'hh' (signed permutations S(x)S on d^2), 'uuu' (U(x)U(x)U on
    d^3), 'uubaru' (U(x)Ubar(x)U on d^3), 'oo' (O(x)O on d^2).  Converges to
    the conditional expectation at the Monte Carlo rate ~ n^{-1/2}.
    """
    x = np.asarray(x, dtype=complex)
    nn = x.shape[0]
    d = family_dim(family, nn)
    rng = rng_from(seed)

    def gens():
        left = n
        while left > 0:
            k = min(MC_BATCH, left)
            left -= k
            if family == "hh":
                s = _stack(random_signed_permutation, rng, d, k).astype(complex)
                yield np.einsum("kab,kcd->kacbd", s, s).reshape(k, nn, nn)
            elif family == "oo":
                o = _stack(random_orthogonal, rng, d, k).astype(complex)
                yield np.einsum("kab,kcd->kacbd", o, o).reshape(k, nn, nn)
            else:
                u = _stack(random_unitary, rng, d, k)
                mid = u.conj() if family == "uubaru" else u
                yield np.einsum("kab,kcd,kef->kacebdf", u, mid,
                                u).reshape(k, nn, nn)

    return _batched_conjugation_average(x, gens())


def wh_w2_identity(d):
    """Two separability identities behind PPT=EB on hh's
    orthogonal-covariant subfamily, read off the dense channels:
    (i) the Choi of the w2 vertex channel is the O(x)O twirl of a product
        pure state, and
    (ii) the A-matrix A_ij = psi(e_jj)_ii of the w1 vertex psi is
        11^T/(d+2) + 2I/(d+2), a rank-1 plus a diagonal part, both with
        nonnegative entries."""
    from . import hh

    w = hh.wh_vertices(d)
    c2 = hh.build_psi(w[1]).choi(normalized=True)
    xi = np.zeros(d, dtype=complex)
    xi[:2] = np.array([1.0, 1j]) / np.sqrt(2)
    psi = np.kron(xi, xi)
    tw = cond_expect(np.outer(psi, psi.conj()), oo_basis(d))
    psi1 = hh.build_psi(w[0])
    a1 = np.stack([psi1(np.diag(e)).diagonal().real for e in np.eye(d)], 1)
    return (np.abs(c2 - tw).max() <= 10 * EQ_TOL
            and np.abs(a1 - (1 + 2 * np.eye(d)) / (d + 2)).max()
            <= EQ_TOL)


def counterexample_vector(tag, d):
    """Unit vector whose image under hh's psi acquires a negative eigenvalue
    when the tagged positivity inequality of `hh.positivity_margins` fails."""
    from . import hh

    if tag not in hh.CONSTRAINT_TAGS:
        raise ContractError(f"invalid constraint tag {tag!r}")
    d = integer(d, "d", 2)
    v = np.zeros(d, dtype=complex)
    if tag == 1:
        v[0] = 1.0
    elif tag == 2:
        v[0] = v[1] = 1.0 / np.sqrt(2)
    elif tag == 3:
        v[0] = 1.0 / np.sqrt(2)
        v[1] = 1j / np.sqrt(2)
    elif tag == 4:
        v[:] = 1.0 / np.sqrt(d)
    else:  # tags 5 and 6 share the uniform phase vector
        v[:] = np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)
    return v


def random_hermitian(rng, n, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2


def selftest(seed=0, level="quick", out=print):
    """Oracle-agreement suite; returns (all_ok, results) and prints a table."""
    from . import hh, quo, s3, werner3

    seed = integer(seed, "seed", 0, ContractError)
    if level not in ("quick", "full"):
        raise ContractError("level must be 'quick' or 'full'")
    big = level == "full"
    rng = rng_from(seed)
    results = []

    def check(name, fn):
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, bool(ok), detail, time.time() - t0))

    def hh_region():
        n = 3000 if big else 500
        bad = 0
        for _ in range(n):
            a, b, c = rng.uniform(-2, 2, size=3)
            co = hh.HHCoeffs(3, a, b, c)
            closed = hh.is_cptp(co)
            numeric = is_psd(hh.build_psi(co).choi(normalized=True))[0]
            if closed != numeric and not hh.on_boundary(co):
                bad += 1
        return bad == 0, f"{bad} disagreements / {n}"

    check("hh-cptp-vs-choi", hh_region)

    def hh_witness():
        n = 600 if big else 150
        bad = 0
        for _ in range(n):
            co = _random_cptp_hh(rng, 3)
            cert = hh.decide(co)
            if cert.check_true("ppt") != cert.check_true("separable_choi"):
                bad += 1
        return bad == 0, f"{bad} disagreements / {n}"

    check("hh-ppt-vs-witness", hh_witness)

    def w3_pos():
        n = 3000 if big else 500
        bad = 0
        for _ in range(n):
            c = _random_coeffs(werner3.S3Coeffs, rng, 3)
            if s3.is_positive(c) != brute_positive_orbit(
                    werner3.build_map(c))[0]:
                if _margin_interior(c.margins6(c.d, c.as_tuple6())):
                    bad += 1
        return bad == 0, f"{bad} disagreements / {n}"

    check("werner3-positivity-oracle", w3_pos)

    def table2():
        n = 1000 if big else 200
        bad = 0
        for _ in range(n):
            c = _random_coeffs(werner3.S3Coeffs, rng, 3)
            x = werner3.invariant_matrix(c)
            if s3.is_cp(c) != is_psd(x)[0]:
                bad += 1
            xa = partial_transpose(x, [3, 3, 3], 0)
            if s3.is_ccp(c) != is_psd(xa)[0]:
                bad += 1
        return bad == 0, f"{bad} disagreements / {2*n}"

    check("table2-blocks-vs-psd", table2)

    def rho_t_cert():
        c = werner3.rho_t_coeffs(3, 1.0)
        cert = werner3.detect_entanglement_w3(c, grid=8)
        lo = cert.witnesses[0]["min_eig"]
        ok = (cert.verdict == "ENTANGLED"
              and abs(lo + (2 / 3) / 47) < 1e-9
              and cert.check_true("ppt_A-BC")
              and not cert.check_true("ppt_B-AC"))
        return ok, f"L0 min_eig {lo:.6e}"

    check("rho-t-certificate", rho_t_cert)

    def quo_pos():
        n = 3000 if big else 500
        bad = 0
        for d in (2, 3):
            for _ in range(n // 2):
                c = _random_coeffs(quo.QuoCoeffs, rng, d)
                if s3.is_positive(c) != brute_positive_orbit(
                        quo.build_map(c))[0]:
                    if _margin_interior(c.margins6(c.d, c.as_tuple6())):
                        bad += 1
        return bad == 0, f"{bad} disagreements / {n}"

    check("quo-positivity-oracle", quo_pos)

    def quo_extremal():
        grid = 12 if big else 6
        bad = 0
        for d in (2, 3):
            for _, t in s3.rows(s3.catalogue(quo.QuoCoeffs, d, grid)):
                r = quo.QuoCoeffs.from_tuple6(d, t)
                if not (s3.is_cp(r) or s3.is_ccp(r)):
                    bad += 1
        return bad == 0, f"{bad} non-CP-non-CCP extremals"

    check("quo-extremals-cp-or-ccp", quo_extremal)

    def w3_exact():
        n = 6 if big else 2
        worst = 0.0
        for d in (3, 4):
            grid = np.array([werner3.extremal_w3("III", *p, d=d).vector()
                             for p in s3.grid_points(16)])
            for _ in range(n):
                c = _random_ppt_w3(rng, d)
                rho = werner3.invariant_matrix(c)
                ks = np.array([werner3.build_L(s, d).adjoint().id_tensor(
                    rho, d) for s in s3.PERMS])
                (key, t), = s3.exact_rows(c)
                (_, m), = s3.witness_minima(c, [(key, t)])
                w = werner3.S3Coeffs.from_tuple6(d, t).vector()
                dense = _least_images([w], ks)[0]
                scale = float(np.linalg.norm(rho))
                worst = max(worst, abs(dense - m) / scale,
                            (dense - _least_images(grid, ks).min()) / scale)
        return worst <= 1e-9, f"worst excess {worst:.1e} of ||rho||_F"

    check("werner3-exact-type-iii", w3_exact)

    def twirl_laws():
        worst = 0.0
        for d in (2, 3):
            for build in BASES.values():
                basis = build(d)
                x = random_hermitian(rng, basis.dim)
                p1 = cond_expect(x, basis)
                p2 = cond_expect(p1, basis)
                worst = max(worst, np.abs(p1 - p2).max(),
                            abs(np.trace(p1) - np.trace(x)))
        return worst < 1e-9, f"max dev {worst:.2e}"

    check("twirl-projector-laws", twirl_laws)

    def mc_twirl():
        d = 3
        n = 100000 if big else 20000
        x = random_hermitian(rng, d**3)
        emp = haar_twirl_mc(x, "uuu", n=n, seed=seed + 1)
        exact = cond_expect(x, BASES["uuu"](d))
        dev = np.abs(emp - exact).max()
        return dev < (1e-2 if big else 5e-2) * max(1.0, np.abs(x).max()), \
            f"max dev {dev:.2e} at n={n}"

    check("mc-haar-twirl", mc_twirl)

    def oo_identity():
        ok = all(wh_w2_identity(d) for d in (3, 4, 5, 6))
        return ok, "d in 3..6"

    check("oo-twirl-identities", oo_identity)

    def hh_composition():
        worst = 0.0
        for d in range(3, 9) if big else (3,):
            vs = hh.extremals(d)
            for _ in range(20):
                co = hh.HHCoeffs(d, *rng.uniform(-2, 2, size=3))
                rho = hh.build_psi(co).choi(normalized=True)
                for v in vs.cp_vertices + vs.ccp_vertices:
                    dense = hh.build_psi(v).id_tensor(rho, d)
                    closed = hh.build_psi(hh.compose(v, co)).choi(
                        normalized=True)
                    worst = max(worst, np.abs(dense - closed).max()
                                / np.abs(dense).max())
        return worst <= 1e-12, f"worst relative dev {worst:.1e}"

    check("hh-composition", hh_composition)

    all_ok = all(ok for _, ok, _, _ in results)
    if out is not None:
        width = max(len(n) for n, _, _, _ in results)
        for name, ok, detail, dt in results:
            out(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  "
                f"({dt:5.1f}s)  {detail}")
        out(f"selftest: {'PASS' if all_ok else 'FAIL'} "
            f"({len(results)} checks, seed={seed}, level={level})")
    return all_ok, results


def _random_cptp_hh(rng, d):
    from . import hh

    while True:
        a = rng.uniform(0, d / (d - 1))
        b = rng.uniform(a / d - 1 / (d - 1), 1 - (d - 1) * a / d)
        c = rng.uniform(-a / d, a / d)
        co = hh.HHCoeffs(d, a, b, c)
        if hh.is_cptp(co):
            return co


def _random_ppt_w3(rng, d):
    """A werner3 state near I/d^3 that is A-BC PPT."""
    from . import s3, werner3

    while True:
        v = (1.0, *rng.uniform(-0.4, 0.4, size=5))
        c = werner3.S3Coeffs.from_tuple6(d, v)
        c = c.scale_by(1.0 / c.trace())
        if s3.is_cp(c) and s3.ppt(c)["A-BC"]:
            return c


def _least_images(ws, ks):
    """Least eigenvalue of sum_sigma w_sigma K_sigma for each w in ws."""
    out = np.tensordot(np.asarray(ws), ks, axes=([1], [0]))
    return np.linalg.eigvalsh((out + np.conj(np.swapaxes(out, 1, 2))) / 2)[
        :, 0]


def _random_coeffs(cls, rng, d):
    return cls.from_tuple6(d, rng.uniform(-1, 1, size=6))


def _margin_interior(margins, band=1e-7):
    return all(abs(m) > band for m in margins)
