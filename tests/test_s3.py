"""The shared S3 core: the closed-form witness sweep against the dense
witness images it replaced."""

import numpy as np
from hypothesis import given, settings, strategies as st

from covwit import quo, s3, werner3
from covwit.linalg import DEFAULT_TOL
from covwit.twirl import PERMS

# family -> (module, coefficient class, witness basis maps, catalogue)
FAMILIES = {
    "werner3": (werner3, werner3.S3Coeffs, werner3.build_L,
                werner3._witness_coeff_grid),
    "quo": (quo, quo.QuoCoeffs, quo.build_M, quo._witness_rows),
}
CASES = [("werner3", d) for d in (3, 4, 5)] + [("quo", d) for d in (2, 3, 4)]

unit = st.floats(-1.0, 1.0, allow_nan=False)
six = st.tuples(*[unit] * 6)


def dense_minima(mod, build_one, c, rows):
    """Smallest eigenvalue of sum_sigma w_sigma (id (x) X_sigma*)(rho) for
    every row w, from the dense images; also returns ||rho||_F."""
    rho = mod.invariant_matrix(c)
    ks = np.array([build_one(s, c.d).adjoint().id_tensor(rho, c.d)
                   for s in PERMS])
    outs = np.tensordot(np.array([w for _, w in rows]), ks, axes=([1], [0]))
    outs = (outs + np.conj(np.swapaxes(outs, 1, 2))) / 2
    return np.linalg.eigvalsh(outs)[:, 0], float(np.linalg.norm(rho))


def as_state(cls, d, v, shrink):
    """a_e = 1 dominating the other coefficients (so the operator is PSD),
    normalized to trace 1."""
    rest = np.abs(v[1:4]).sum() + 2 * abs(complex(v[4], v[5]))
    f = shrink / max(rest, 1e-12)
    c = cls.from_tuple6(d, (1.0,) + tuple(f * x for x in v[1:]))
    return c.scale_by(1.0 / c.trace())


@settings(max_examples=60)
@given(case=st.sampled_from(CASES), v=six, state=st.booleans(),
       shrink=st.floats(0.0, 1.0), extra=st.lists(six, min_size=1,
                                                   max_size=4))
def test_witness_sweep_matches_dense_images(case, v, state, shrink, extra):
    family, d = case
    mod, cls, build_one, catalogue = FAMILIES[family]
    c = as_state(cls, d, v, shrink) if state else cls.from_tuple6(d, v)
    if state:
        mod.state_check(c)
    rows = catalogue(d, 4) + [
        ("random", cls.from_tuple6(d, w).vector()) for w in extra]
    cert = s3.certificate(family, c, DEFAULT_TOL, 0)
    mins, _ = s3.witness_sweep(cert, c, rows, DEFAULT_TOL)
    want, norm = dense_minima(mod, build_one, c, rows)
    for (_, w), got, ref in zip(rows, mins, want):
        assert abs(got - ref) <= 1e-12 * max(1.0, norm * np.linalg.norm(w))
    assert cert.checks["witness_sweep"]["evidence"]["count"] == len(rows)
