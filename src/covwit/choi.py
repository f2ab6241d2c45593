"""Channel/state duality: Choi matrices, map application, adjoints.

The Choi matrix convention is C = sum_ij e_ij (x) L(e_ij) (unnormalized);
the normalized version divides by d_in.  Map application inverts it via
L(X)_kl = sum_ij X_ij C[(i,k),(j,l)], which is one matrix product with the
realigned Choi matrix S[(i,j),(k,l)] = C[(i,k),(j,l)]: vec L(X) = vec X @ S.
"""

import numpy as np

from .linalg import DimensionError, asmatrix, identity, integer


def _realign(m, p, q, r, s):
    """M[(a,i),(b,j)] -> R[(a,b),(i,j)] for M read as a (p, q, r, s) array;
    the same call with (p, r, q, s) maps R back to M."""
    return m.reshape(p, q, r, s).transpose(0, 2, 1, 3).reshape(p * r, q * s)


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

    def __call__(self, x):
        return self.id_tensor(x, 1)

    def adjoint(self):
        """The adjoint L* for the bilinear pairing Tr(L(X)Y) = Tr(X L*(Y))."""
        a, b = self.d_in, self.d_out
        adj = self._choi.reshape(a, b, a, b).transpose(3, 2, 1, 0)
        return LinMap(b, a, adj.reshape(b * a, b * a))

    def id_tensor(self, rho, d_id):
        """(id_{d_id} (x) L)(rho) for rho on C^{d_id} (x) C^{d_in}.

        Row (a,b) of the realigned rho is vec of the block rho_ab, and
        (id (x) L)(rho) has blocks L(rho_ab), so all d_id^2 blocks map in one
        product with the realigned Choi matrix."""
        d_id = integer(d_id, "d_id", 1)
        rho = asmatrix(rho)
        a, b = self.d_in, self.d_out
        n = d_id * a
        if rho.shape != (n, n):
            raise DimensionError(f"input shape {rho.shape} != ({n},{n})")
        blocks = _realign(rho, d_id, a, d_id, a)
        out = blocks @ _realign(self._choi, a, b, a, b)
        return _realign(out, d_id, d_id, b, b)


def identity_map(d):
    """id_d, with unnormalized Choi matrix sum_ij e_ij (x) e_ij."""
    v = identity(d).reshape(-1)
    return LinMap(d, d, np.outer(v, v))

