"""Conditional expectations onto invariant-operator spans, one basis per
family, the O(x)O twirl among them."""

import numpy as np
import pytest

from covwit.linalg import (ContractError, DimensionError, NumericalError,
                           identity)
from covwit.oracle import (random_orthogonal, random_signed_permutation,
                           random_unitary)
from covwit.twirl import (BASES, PERM_IMAGES, PERMS, InvBasis, build_T,
                          build_V, coefficients, cond_expect, family_dim,
                          hh_basis, oo_basis, uubaru_basis, uuu_basis)


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def compose(p, q):
    """Permutation composition on image tuples: (p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(3))


def name_of(images):
    return next(k for k, v in PERM_IMAGES.items() if v == images)


def test_build_V_multiplication_table():
    """V_p V_q = V_{p o q} for all 36 pairs (d = 3)."""
    d = 3
    vs = {s: build_V(s, d) for s in PERMS}
    for p in PERMS:
        for q in PERMS:
            pq = name_of(compose(PERM_IMAGES[p], PERM_IMAGES[q]))
            assert np.array_equal(vs[p] @ vs[q], vs[pq]), (p, q)


def test_build_V_unitary_and_real():
    for d in (2, 3):
        for s in PERMS:
            v = build_V(s, d)
            assert np.array_equal(v.imag, np.zeros_like(v.imag))
            assert np.allclose(v @ v.conj().T, identity(d**3))


def test_d2_relation_exact():
    """V_e - V_12 - V_13 - V_23 + V_123 + V_132 = 0 exactly at d = 2
    (entries are small integers, so float arithmetic is exact)."""
    d = 2
    eps = {"e": 1, "12": -1, "13": -1, "23": -1, "123": 1, "132": 1}
    acc = sum(eps[s] * build_V(s, d) for s in PERMS)
    assert np.abs(acc).max() == 0.0
    # same relation holds for the partial transposes
    acc_t = sum(eps[s] * build_T(s, d) for s in PERMS)
    assert np.abs(acc_t).max() == 0.0


def test_basis_ranks():
    """V and T spans: 6-dimensional for d >= 3, 5-dimensional at d = 2."""
    for d, expect in ((2, 5), (3, 6), (4, 6)):
        mv = np.stack([build_V(s, d).ravel() for s in PERMS])
        mt = np.stack([build_T(s, d).ravel() for s in PERMS])
        assert np.linalg.matrix_rank(mv) == expect
        assert np.linalg.matrix_rank(mt) == expect
        assert len(uuu_basis(d).elements) == min(expect, 6)
        assert len(uubaru_basis(d).elements) == min(expect, 6)


@pytest.mark.parametrize("d", [2, 3])
def test_projector_laws(d):
    """Idempotence, trace preservation, Hermiticity preservation, and fixing
    of basis elements, for every family basis."""
    rng = np.random.default_rng(d)
    for name, build in BASES.items():
        basis = build(d)
        x = random_hermitian(rng, basis.dim)
        p1 = cond_expect(x, basis)
        p2 = cond_expect(p1, basis)
        assert np.abs(p1 - p2).max() < 1e-10, name
        assert abs(np.trace(p1) - np.trace(x)) < 1e-10, name
        assert np.abs(p1 - p1.conj().T).max() < 1e-10, name
        for b in basis.elements:
            assert np.abs(cond_expect(b, basis) - b).max() < 1e-10, name
            assert np.linalg.norm(b - cond_expect(b, basis)) < 1e-10, name


def test_projection_is_orthogonal():
    """x - E(x) is Hilbert-Schmidt orthogonal to the span."""
    rng = np.random.default_rng(11)
    basis = uuu_basis(3)
    x = random_hermitian(rng, 27)
    diff = x - cond_expect(x, basis)
    for b in basis.elements:
        assert abs(np.trace(b.conj().T @ diff)) < 1e-9


def test_commutes_with_group_conjugation():
    """E((g x ... x g) X (...)^dag) = E(X) for invariant E and group g."""
    rng = np.random.default_rng(12)
    d = 3
    x = random_hermitian(rng, d**3)
    bases = {name: build(d) for name, build in BASES.items()}
    ex_uuu = cond_expect(x, bases["uuu"])
    ex_uub = cond_expect(x, bases["uubaru"])
    for _ in range(20):
        u = random_unitary(rng, d)
        g1 = np.kron(u, np.kron(u, u))
        g2 = np.kron(u, np.kron(u.conj(), u))
        assert np.abs(cond_expect(g1 @ x @ g1.conj().T, bases["uuu"])
                      - ex_uuu).max() < 1e-9
        assert np.abs(cond_expect(g2 @ x @ g2.conj().T, bases["uubaru"])
                      - ex_uub).max() < 1e-9

    y = random_hermitian(rng, d * d)
    ex_hh = cond_expect(y, bases["hh"])
    for _ in range(20):
        h = random_signed_permutation(rng, d)
        g = np.kron(h, h)
        assert np.abs(cond_expect(g @ y @ g.T, bases["hh"])
                      - ex_hh).max() < 1e-9


def test_coefficients_of_basis_elements():
    basis = hh_basis(3)
    for i, b in enumerate(basis.elements):
        c = coefficients(b, basis)
        e = np.zeros(len(basis.elements))
        e[i] = 1.0
        assert np.abs(c - e).max() < 1e-10


def test_gram_condition_guard():
    a = np.eye(2)
    bad = InvBasis("bad", 2, [a, a + 1e-14 * np.ones((2, 2))])
    with pytest.raises(NumericalError):
        bad.gram()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_oo_projections(d):
    ps = oo_basis(d).elements
    ranks = (1, d * (d + 1) // 2 - 1, d * (d - 1) // 2)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for p, r in zip(ps, ranks):
        assert np.abs(p @ p - p).max() < 1e-12          # idempotent
        assert np.abs(p - p.conj().T).max() < 1e-12     # Hermitian
        assert np.isclose(np.trace(p).real, r)          # rank from trace
        acc += p
    assert np.abs(acc - identity(d * d)).max() < 1e-12  # resolution of id
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.abs(ps[i] @ ps[j]).max() < 1e-12  # orthogonal
    assert np.abs(oo_basis(d).gram() - np.diag(ranks)).max() < 1e-12


def test_twirl_oo_agrees_with_haar_average():
    """The oo projection equals the empirical O (x) O conjugation average."""
    rng = np.random.default_rng(13)
    d = 3
    x = random_hermitian(rng, d * d)
    tw = cond_expect(x, oo_basis(d))
    acc = np.zeros_like(x)
    n = 20000
    for _ in range(n):
        o = random_orthogonal(rng, d)
        g = np.kron(o, o)
        acc += g @ x @ g.T
    assert np.abs(acc / n - tw).max() < 5e-2 * max(1.0, np.abs(x).max())


def test_twirl_oo_fixes_invariants():
    d = 4
    basis = oo_basis(d)
    for p in basis.elements:
        assert np.abs(cond_expect(p, basis) - p).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", list(BASES))
def test_cond_expect_matches_brute_force_projection(family, d):
    """The Gram solve agrees with a least-squares projection of vec(x) onto
    the span of the vectorized basis elements, on a random complex x."""
    rng = np.random.default_rng(d)
    basis = BASES[family](d)
    n = basis.dim
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = np.stack([b.ravel() for b in basis.elements], axis=1)
    c, *_ = np.linalg.lstsq(m, x.ravel(), rcond=None)
    brute = (m @ c).reshape(n, n)
    got = cond_expect(x, basis)
    assert np.abs(got - brute).max() <= 1e-12 * np.abs(x).max()
    assert np.abs(coefficients(x, basis) - c).max() <= 1e-12 * np.abs(x).max()


def test_family_dim():
    for family, n, d in (("hh", 9, 3), ("oo", 289, 17), ("uuu", 27, 3),
                         ("uubaru", 4913, 17), ("oo", 1, 1)):
        assert family_dim(family, n) == d
    for family, n in (("hh", 8), ("oo", 27), ("uuu", 9), ("uubaru", 26)):
        with pytest.raises(DimensionError):
            family_dim(family, n)
    with pytest.raises(ContractError):
        family_dim("nope", 9)
    for build in BASES.values():
        with pytest.raises(DimensionError, match="d must be >= 2"):
            build(1)
