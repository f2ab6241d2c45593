"""The brute-force verifiers themselves: sampler distributions, Monte Carlo
twirl convergence, and the selftest harness."""

import numpy as np
import pytest

from covwit import hh, werner3
from covwit.linalg import ContractError
from covwit.oracle import (brute_positive_orbit, brute_positive_sample,
                           haar_twirl_mc, random_hermitian, random_orthogonal,
                           random_pure_state, random_signed_permutation,
                           random_unitary, rng_from, selftest)
from covwit.twirl import BASES, cond_expect


def test_sampler_shapes_and_group_membership():
    rng = rng_from(0)
    for d in (2, 3, 5):
        u = random_unitary(rng, d)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
        o = random_orthogonal(rng, d)
        assert np.abs(o.imag).max() == 0.0
        assert np.abs(o @ o.T - np.eye(d)).max() < 1e-12
        s = random_signed_permutation(rng, d)
        assert np.abs(s @ s.T - np.eye(d)).max() < 1e-12
        assert set(np.abs(s).ravel()) <= {0.0, 1.0}
        v = random_pure_state(rng, d)
        assert np.isclose(np.linalg.norm(v), 1.0)


def test_unitary_sampling_is_deterministic_per_seed():
    a = random_unitary(rng_from(5), 4)
    b = random_unitary(rng_from(5), 4)
    assert np.array_equal(a, b)


def test_brute_positive_orbit_requires_transitive_family():
    with pytest.raises(ContractError):
        brute_positive_orbit(hh.build_psi(hh.HHCoeffs(3, 1, 0, 0)))


def test_brute_positive_orbit_vs_sample():
    rng = rng_from(1)
    for _ in range(20):
        v = rng.uniform(-1, 1, size=6)
        c = werner3.S3Coeffs(3, v[0], v[1], v[2], v[3],
                             complex(v[4], v[5]))
        if any(abs(m) < 1e-6 for m in c.margins6(c.d, c.as_tuple6())):
            continue
        m = werner3.build_map(c)
        orbit = brute_positive_orbit(m)[0]
        sample = brute_positive_sample(m, n=60, seed=3)[0]
        # sampling is one-sided: it can miss violations but not invent them
        if orbit:
            assert sample
        if not sample:
            assert not orbit


def test_mc_twirl_matches_cond_expect():
    rng = rng_from(2)
    d = 3
    x = random_hermitian(rng, d**3)
    exact = cond_expect(x, BASES["uuu"](d))
    emp = haar_twirl_mc(x, "uuu", n=20000, seed=0)
    assert np.abs(emp - exact).max() < 5e-2 * max(1.0, np.abs(x).max())


def test_mc_twirl_uubaru_and_oo():
    rng = rng_from(3)
    d = 2
    x = random_hermitian(rng, d**3)
    exact = cond_expect(x, BASES["uubaru"](d))
    emp = haar_twirl_mc(x, "uubaru", n=20000, seed=1)
    assert np.abs(emp - exact).max() < 5e-2 * max(1.0, np.abs(x).max())

    y = random_hermitian(rng, 9)
    exact_oo = cond_expect(y, BASES["oo"](3))
    emp_oo = haar_twirl_mc(y, "oo", n=20000, seed=2)
    assert np.abs(emp_oo - exact_oo).max() < 5e-2 * max(1.0, np.abs(y).max())


def test_mc_twirl_hh_exact_projection_limit():
    """The signed-permutation group is finite, so the sampled average sits in
    the invariant span and converges to the conditional expectation."""
    rng = rng_from(4)
    d = 3
    x = random_hermitian(rng, d * d)
    exact = cond_expect(x, BASES["hh"](d))
    emp = haar_twirl_mc(x, "hh", n=40000, seed=3)
    assert np.abs(emp - exact).max() < 5e-2 * max(1.0, np.abs(x).max())


def test_mc_twirl_error_decreases_with_n():
    rng = rng_from(6)
    d = 3
    x = random_hermitian(rng, d**3)
    exact = cond_expect(x, BASES["uuu"](d))
    errs_small, errs_big = [], []
    for k in range(20):
        errs_small.append(np.abs(
            haar_twirl_mc(x, "uuu", n=500, seed=100 + k) - exact).max())
        errs_big.append(np.abs(
            haar_twirl_mc(x, "uuu", n=2000, seed=200 + k) - exact).max())
    assert np.median(errs_big) < np.median(errs_small)


def test_mc_twirl_rejects_bad_family_and_shape():
    with pytest.raises(ContractError):
        haar_twirl_mc(np.eye(4), "nope")
    from covwit.linalg import DimensionError
    with pytest.raises(DimensionError):
        haar_twirl_mc(np.eye(5), "hh")


def test_selftest_quick_passes():
    ok, results = selftest(seed=0, level="quick", out=None)
    assert ok
    assert len(results) == 12
    names = [name for name, *_ in results]
    assert "werner3-exact-type-iii" in names and "hh-composition" in names
    for name, passed, detail, dt in results:
        assert passed, (name, detail)


def test_selftest_rejects_bad_level():
    with pytest.raises(ContractError):
        selftest(level="medium")


@pytest.mark.parametrize("bad", [-1, 1.5, True, "0"])
def test_selftest_seed_is_a_nonnegative_integer(bad):
    with pytest.raises(ContractError):
        selftest(seed=bad, out=lambda *a: None)
