"""PPT equals separability for the partially transposed permutation family.

For states spanned by T_sigma = V_sigma^{T_B}, the A-BC partial-transpose
criterion is not merely necessary for separability -- it is sufficient, in
every dimension d >= 2.  The certificate therefore returns a definite
SEPARABLE/ENTANGLED verdict rather than an inconclusive one.
"""

import numpy as np

from covwit import quo

for d in (2, 3):
    print(f"=== T_sigma-invariant states on (C^{d})^3 ===")
    # maximally mixed state
    c = quo.QuoCoeffs(d, 1.0 / d**3, 0, 0, 0, 0)
    cert = quo.decide_quo(c, grid=6)
    print(f"  maximally mixed: {cert.verdict} "
          f"(witness sweep min eig "
          f"{cert.checks['witness_sweep']['evidence']['min_eig']:+.2e})")

    # a random invariant state, made PSD and normalized
    rng = np.random.default_rng(7)
    while True:
        v = rng.uniform(-1, 1, size=6)
        c = quo.QuoCoeffs(d, v[0], v[1], v[2], v[3], complex(v[4], v[5]))
        x = quo.invariant_matrix(c)
        lo = np.linalg.eigvalsh(x)[0].real
        c = quo.QuoCoeffs(d, c.a_e - min(lo, 0) * 1.05, c.a_12, c.a_13,
                          c.a_23, c.a_123)
        f = 1.0 / c.trace()
        c = quo.QuoCoeffs(d, f * c.a_e, f * c.a_12, f * c.a_13, f * c.a_23,
                          f * complex(c.a_123))
        if not quo.ppt_quo(c)["A-BC"]:
            break
    cert = quo.decide_quo(c, grid=8)
    print(f"  random NPT state:  {cert.verdict} "
          f"(A-BC partial transpose min eig "
          f"{cert.checks['ppt_A-BC']['evidence']['margin']:+.4f}, "
          f"worst witness {cert.witnesses[0]['min_eig']:+.4f})")
    print()

print("Extremal positive maps of this family are all CP or CCP,")
print("which is exactly why PPT and separability coincide:")
for t in ("I", "II", "III", "IV"):
    r = quo.extremal_quo(t, 0.6, 0.4, 0.2, 1, 3)
    print(f"  Type {t:<3} -> CP: {quo.is_cp_quo(r)}, CCP: {quo.is_ccp_quo(r)}")
