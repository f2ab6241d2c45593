"""Channel/state duality: Choi matrices, map application, adjoints.

The Choi matrix convention is C = sum_ij e_ij (x) L(e_ij) (unnormalized);
the normalized version divides by d_in.  Map application inverts it via
L(X)_kl = sum_ij X_ij C[(i,k),(j,l)].
"""

import numpy as np

from .linalg import DimensionError, asmatrix, flip, identity, integer


def max_entangled(d):
    """|Omega_d><Omega_d| = (1/d) sum_ij e_ij (x) e_ij, the normalized Choi
    matrix of id_d; rank-1, trace 1."""
    return identity_map(d).choi(normalized=True)


class LinMap:
    """A linear map M_{d_in} -> M_{d_out}, stored as its unnormalized Choi
    matrix; application, the adjoint and id (x) L all read that matrix.

    family tags the structured map families ("hh", "werner3-L", "quo-M").
    """

    def __init__(self, d_in, d_out, choi_unnorm, *, family=None):
        d_in, d_out = integer(d_in, "d_in", 1), integer(d_out, "d_out", 1)
        c = asmatrix(choi_unnorm)
        n = d_in * d_out
        if c.shape != (n, n):
            raise DimensionError(f"Choi matrix shape {c.shape} != ({n},{n})")
        self.d_in = d_in
        self.d_out = d_out
        self.family = family
        self._choi = c

    def choi(self, normalized=True):
        return self._choi / self.d_in if normalized else self._choi

    def _choi4(self):
        return self._choi.reshape(self.d_in, self.d_out, self.d_in, self.d_out)

    def __call__(self, x):
        x = asmatrix(x)
        if x.shape != (self.d_in, self.d_in):
            raise DimensionError(
                f"input shape {x.shape} != ({self.d_in},{self.d_in})")
        return np.einsum("ij,ikjl->kl", x, self._choi4())

    def adjoint(self):
        """The adjoint L* for the bilinear pairing Tr(L(X)Y) = Tr(X L*(Y))."""
        adj = np.ascontiguousarray(
            np.transpose(self._choi4(), (3, 2, 1, 0))).reshape(
            self.d_out * self.d_in, self.d_out * self.d_in)
        return LinMap(self.d_out, self.d_in, adj)

    def id_tensor(self, rho, d_id):
        """(id_{d_id} (x) L)(rho) for rho on C^{d_id} (x) C^{d_in}."""
        rho = asmatrix(rho)
        n = d_id * self.d_in
        if rho.shape != (n, n):
            raise DimensionError(f"state shape {rho.shape} != ({n},{n})")
        rho4 = rho.reshape(d_id, self.d_in, d_id, self.d_in)
        out4 = np.einsum("aibj,ikjl->akbl", rho4, self._choi4())
        m = d_id * self.d_out
        return np.ascontiguousarray(out4).reshape(m, m)


def identity_map(d):
    """id_d, with unnormalized Choi matrix sum_ij e_ij (x) e_ij."""
    v = identity(d).reshape(-1)
    return LinMap(d, d, np.outer(v, v))


def transpose_map(d):
    return LinMap(d, d, flip(d))
