"""Twirling without Haar integrals.

Averaging g X g^dag over a compact group equals the Hilbert-Schmidt
orthogonal projection onto the span of the invariant operators -- a
six-term (or four-term) Gram solve.  This demo compares the exact
conditional expectation with a brute-force Monte Carlo average, and shows
the O(x)O twirl collapsing a product state onto a spectral projector.
"""

import numpy as np

from covwit.oracle import haar_twirl_mc, random_hermitian, rng_from
from covwit.twirl import coefficients, cond_expect, oo_basis, uuu_basis

d = 3
rng = rng_from(0)
x = random_hermitian(rng, d**3)

basis = uuu_basis(d)
exact = cond_expect(x, basis)
print(f"=== U(x)U(x)U twirl on a random Hermitian (d={d}) ===")
print("projection coefficients over (e, 12, 13, 23, 123, 132):")
print("  ", np.round(coefficients(x, basis), 4))
for n in (1000, 10000, 100000):
    emp = haar_twirl_mc(x, "uuu", n=n, seed=1)
    print(f"  Monte Carlo n={n:>6}: max deviation "
          f"{np.abs(emp - exact).max():.2e}")

print("\n=== O(x)O twirl of the product state xi (x) xi ===")
xi = np.zeros(d, dtype=complex)
xi[0] = 1 / np.sqrt(2)
xi[1] = 1j / np.sqrt(2)
psi = np.kron(xi, xi)
oo = oo_basis(d)
tw = cond_expect(np.outer(psi, psi.conj()), oo)
ranks = tuple(round(np.trace(p).real) for p in oo.elements)
print(f"  ranks of the three spectral projectors: {ranks}")
dev = np.abs(tw - oo.elements[1] / ranks[1]).max()
print(f"  || twirl - P2/rank(P2) ||_max = {dev:.2e}")
print("  i.e. the twirled product state IS the normalized middle projector,")
print("  the separability identity behind PPT = EB on the b+c subfamily.")
