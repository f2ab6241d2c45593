"""Twirling as algebra: the trace-preserving conditional expectation onto the
span of an invariant-operator basis, plus the explicit O(x)O twirl.

For a compact symmetry group, averaging conjugations over the group equals the
Hilbert-Schmidt orthogonal projection onto the commutant span; projecting onto
a known basis replaces Haar integration entirely.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import (DimensionError, NumericalError, asmatrix, check_dense,
                     flip, identity, matrix_unit)
from .choi import max_entangled

GRAM_COND_LIMIT = 1e12

PERMS = ("e", "12", "13", "23", "123", "132")
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
        if self._gram is None:
            k = len(self.elements)
            g = np.zeros((k, k), dtype=complex)
            for i, bi in enumerate(self.elements):
                for j, bj in enumerate(self.elements):
                    g[i, j] = np.trace(bi.conj().T @ bj)
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
    v = np.array([np.trace(b.conj().T @ x) for b in basis.elements])
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


def residual(x, basis: InvBasis):
    """Frobenius norm of x minus its projection (0 iff x is invariant)."""
    return float(np.linalg.norm(asmatrix(x) - cond_expect(x, basis)))


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
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        out += np.kron(matrix_unit(i, i, d), matrix_unit(i, i, d))
    return out


def hh_basis(d):
    """Unnormalized Choi matrices of the four basic signed-permutation
    covariant maps: depolarizing, identity, transpose, diagonal pinching."""
    if d < 2:
        raise DimensionError("d must be >= 2")
    return InvBasis("hh", d * d, [
        identity(d * d) / d,
        d * max_entangled(d),
        flip(d),
        diag_units(d),
    ])


def uuu_basis(d):
    """The permutation operators V_sigma; 6 elements for d >= 3, 5 for d = 2
    (one is dropped because of the linear relation
    V_e - V_12 - V_13 - V_23 + V_123 + V_132 = 0)."""
    if d < 2:
        raise DimensionError("d must be >= 2")
    perms = PERMS if d >= 3 else PERMS[:5]
    return InvBasis("uuu", d**3, [build_V(s, d) for s in perms])


def uubaru_basis(d):
    """The partially transposed permutation operators T_sigma.  Partial
    transposition is a linear bijection, so the T_sigma inherit exactly the
    dependence structure of the V_sigma: independent for d >= 3, one
    relation at d = 2 (drop T_132)."""
    if d < 2:
        raise DimensionError("d must be >= 2")
    perms = PERMS if d >= 3 else PERMS[:5]
    return InvBasis("uubaru", d**3, [build_T(s, d) for s in perms])


def std_bases(d):
    return {"hh": hh_basis(d), "uuu": uuu_basis(d), "uubaru": uubaru_basis(d)}


@dataclass
class OOProjections:
    """The three spectral projectors of the O(x)O commutant."""

    d: int
    P1: np.ndarray
    P2: np.ndarray
    P3: np.ndarray

    @property
    def ranks(self):
        d = self.d
        return (1, d * (d + 1) // 2 - 1, d * (d - 1) // 2)


def oo_projections(d):
    omega = max_entangled(d)
    f = flip(d)
    eye = identity(d * d)
    return OOProjections(d, omega, (eye + f) / 2 - omega, (eye - f) / 2)


def twirl_oo(x, d):
    """O(x)O twirl: sum_i Tr(P_i x) P_i / rank(P_i)."""
    x = asmatrix(x)
    if x.shape != (d * d, d * d):
        raise DimensionError(f"matrix shape {x.shape} != ({d*d},{d*d})")
    pr = oo_projections(d)
    out = np.zeros_like(x)
    for p, r in zip((pr.P1, pr.P2, pr.P3), pr.ranks):
        out += (np.trace(p @ x) / r) * p
    return out
