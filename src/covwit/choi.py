"""Channel/state duality: Choi matrices, map application, adjoints.

The Choi matrix convention is C = sum_ij e_ij (x) L(e_ij) (unnormalized);
the normalized version divides by d_in.  Map application inverts it via
L(X)_kl = sum_ij X_ij C[(i,k),(j,l)].
"""

import numpy as np

from .linalg import DimensionError, asmatrix, check_dense, matrix_unit


def max_entangled(d):
    """|Omega_d><Omega_d| = (1/d) sum_ij e_ij (x) e_ij; rank-1, trace 1."""
    if d < 1:
        raise DimensionError("d must be >= 1")
    omega = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            omega[i * d + i, j * d + j] = 1.0 / d
    return omega


class LinMap:
    """A linear map M_{d_in} -> M_{d_out}, stored as an unnormalized Choi
    matrix and/or a fast closed-form action.

    family/coeffs are optional tags used by structured map families.
    """

    def __init__(self, d_in, d_out, *, apply_fn=None, choi_unnorm=None,
                 family=None, coeffs=None, name=None):
        if d_in < 1 or d_out < 1:
            raise DimensionError("map dimensions must be positive")
        if apply_fn is None and choi_unnorm is None:
            raise DimensionError("need apply_fn or choi_unnorm")
        self.d_in = d_in
        self.d_out = d_out
        self._apply_fn = apply_fn
        self._choi = None
        self.family = family
        self.coeffs = coeffs
        self.name = name
        if choi_unnorm is not None:
            c = asmatrix(choi_unnorm)
            n = d_in * d_out
            if c.shape != (n, n):
                raise DimensionError(
                    f"Choi matrix shape {c.shape} != ({n},{n})")
            self._choi = c

    def choi(self, normalized=True):
        if self._choi is None:
            d_in, d_out = self.d_in, self.d_out
            check_dense(d_in * d_out)
            c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
            c4 = c.reshape(d_in, d_out, d_in, d_out)
            for i in range(d_in):
                for j in range(d_in):
                    c4[i, :, j, :] = self._apply_fn(matrix_unit(i, j, d_in))
            self._choi = c
        return self._choi / self.d_in if normalized else self._choi

    def _choi4(self):
        return self.choi(normalized=False).reshape(
            self.d_in, self.d_out, self.d_in, self.d_out)

    def __call__(self, x):
        x = asmatrix(x)
        if x.shape != (self.d_in, self.d_in):
            raise DimensionError(
                f"input shape {x.shape} != ({self.d_in},{self.d_in})")
        if self._apply_fn is not None:
            return self._apply_fn(x)
        return np.einsum("ij,ikjl->kl", x, self._choi4())

    def adjoint(self):
        """The adjoint L* for the bilinear pairing Tr(L(X)Y) = Tr(X L*(Y))."""
        c4 = self._choi4()
        adj = np.ascontiguousarray(np.transpose(c4, (3, 2, 1, 0))).reshape(
            self.d_out * self.d_in, self.d_out * self.d_in)
        name = None if self.name is None else self.name + "*"
        return LinMap(self.d_out, self.d_in, choi_unnorm=adj, name=name)

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
    return LinMap(d, d, apply_fn=lambda x: x, name="id")


def transpose_map(d):
    return LinMap(d, d, apply_fn=lambda x: x.T.copy(), name="transpose")

