"""Twirling as algebra: the trace-preserving conditional expectation onto the
span of an invariant-operator basis, one basis per symmetry family.

For a compact symmetry group, averaging conjugations over the group equals the
Hilbert-Schmidt orthogonal projection onto the commutant span; projecting onto
a known basis replaces Haar integration entirely.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import (ContractError, DimensionError, NumericalError, asmatrix,
                     check_dense, flip, identity, integer)
from .choi import max_entangled
from .s3 import PERMS

GRAM_COND_LIMIT = 1e12

# images of (1,2,3) under each permutation, 0-indexed
PERM_IMAGES = {
    "e": (0, 1, 2),
    "12": (1, 0, 2),
    "13": (2, 1, 0),
    "23": (0, 2, 1),
    "123": (1, 2, 0),
    "132": (2, 0, 1),
}


@dataclass
class InvBasis:
    """A linearly independent spanning set of an invariant operator algebra."""

    name: str
    dim: int
    elements: list
    _gram: np.ndarray = field(default=None, repr=False, compare=False)

    def gram(self):
        """Hilbert-Schmidt products Tr(b_i^* b_j), each one np.vdot."""
        if self._gram is None:
            g = np.array([[np.vdot(bi, bj) for bj in self.elements]
                          for bi in self.elements], dtype=complex)
            if np.linalg.cond(g) > GRAM_COND_LIMIT:
                raise NumericalError(
                    f"basis '{self.name}' has ill-conditioned Gram matrix")
            self._gram = g
        return self._gram


def coefficients(x, basis: InvBasis):
    """Gram-solve for the projection coefficients of x onto the basis span."""
    x = asmatrix(x)
    if x.shape != (basis.dim, basis.dim):
        raise DimensionError(
            f"matrix shape {x.shape} != basis dim {basis.dim}")
    v = np.array([np.vdot(b, x) for b in basis.elements])
    return np.linalg.solve(basis.gram(), v)


def cond_expect(x, basis: InvBasis):
    """Project x orthogonally (Hilbert-Schmidt) onto the basis span.

    This is the unique trace-preserving conditional expectation onto the
    invariant algebra, i.e. the twirl of x.
    """
    c = coefficients(x, basis)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for ci, b in zip(c, basis.elements):
        out += ci * b
    return out


def build_V(sigma, d):
    """V_sigma = sum |j1 j2 j3><j_{s(1)} j_{s(2)} j_{s(3)}| on (C^d)^3."""
    if sigma not in PERM_IMAGES:
        raise DimensionError(f"unknown permutation {sigma!r}")
    check_dense(d**3)
    p = PERM_IMAGES[sigma]
    v6 = np.zeros((d,) * 6)
    j = np.indices((d, d, d))
    v6[j[0], j[1], j[2], j[p[0]], j[p[1]], j[p[2]]] = 1.0
    return v6.reshape(d**3, d**3).astype(complex)


def build_T(sigma, d):
    """T_sigma: V_sigma partially transposed on the middle factor."""
    from .linalg import partial_transpose

    return partial_transpose(build_V(sigma, d), [d, d, d], 1)


def diag_units(d):
    """sum_i e_ii (x) e_ii: ones at the diagonal entries (ii, ii)."""
    out = np.zeros((d * d, d * d), dtype=complex)
    ii = np.arange(d) * (d + 1)
    out[ii, ii] = 1.0
    return out


def _basis_dim(d, power):
    """n = d**power, the side of a family's basis operators, once d >= 2 and
    the dense size cap are checked."""
    d = integer(d, "d", 2)
    check_dense(d**power)
    return d**power


def hh_basis(d):
    """Unnormalized Choi matrices of the four basic signed-permutation
    covariant maps: depolarizing, identity, transpose, diagonal pinching."""
    n = _basis_dim(d, 2)
    return InvBasis("hh", n, [
        identity(n) / d,
        d * max_entangled(d),
        flip(d),
        diag_units(d),
    ])


def uuu_basis(d):
    """The permutation operators V_sigma; 6 elements for d >= 3, 5 for d = 2
    (one is dropped because of the linear relation
    V_e - V_12 - V_13 - V_23 + V_123 + V_132 = 0)."""
    n = _basis_dim(d, 3)
    perms = PERMS if d >= 3 else PERMS[:5]
    return InvBasis("uuu", n, [build_V(s, d) for s in perms])


def uubaru_basis(d):
    """The partially transposed permutation operators T_sigma.  Partial
    transposition is a linear bijection, so the T_sigma inherit exactly the
    dependence structure of the V_sigma: independent for d >= 3, one
    relation at d = 2 (drop T_132)."""
    n = _basis_dim(d, 3)
    perms = PERMS if d >= 3 else PERMS[:5]
    return InvBasis("uubaru", n, [build_T(s, d) for s in perms])


def oo_basis(d):
    """The three spectral projectors of the O(x)O commutant: Omega,
    (I + F)/2 - Omega and (I - F)/2.  They are mutually orthogonal, so the
    Gram matrix is diag(1, d(d+1)/2 - 1, d(d-1)/2), their ranks, and
    cond_expect is the O(x)O twirl sum_i Tr(P_i x) P_i / rank(P_i)."""
    n = _basis_dim(d, 2)
    omega = max_entangled(d)
    f = flip(d)
    eye = identity(n)
    return InvBasis("oo", n, [omega, (eye + f) / 2 - omega, (eye - f) / 2])


BASES = {"hh": hh_basis, "uuu": uuu_basis, "uubaru": uubaru_basis,
         "oo": oo_basis}


def family_dim(family, n):
    """The local dimension d of an n x n operator of the family: n = d^2
    for hh and oo, n = d^3 for uuu and uubaru."""
    if family not in BASES:
        raise ContractError(f"unknown family {family!r}")
    k = 2 if family in ("hh", "oo") else 3
    d = round(n ** (1 / k))
    if d**k != n:
        raise DimensionError(f"matrix size {n} is not d^{k} for {family}")
    return d
