"""Detect PPT entanglement in tripartite Werner-symmetric states.

The state family rho_t is PPT across the A-BC cut for all t up to a
threshold, yet entangled for every t > 0.  A single non-decomposable
covariant witness map certifies this with a closed-form negative eigenvalue.
Of the extremal types only Type III is neither CP nor CCP, and the sweep
takes it at its exact optimum, so a PPT state's verdict does not depend on
the witness grid.
"""

from fractions import Fraction

import numpy as np

from covwit import s3, werner3

d = 3
print(f"=== U(x)U(x)U-invariant states on (C^{d})^3 ===\n")

print("The canonical witness L0 (Type III, A=1, B=C=0):")
L0 = werner3.witness_L0(d)
print(f"  coefficients (a_e, a_12, a_13, a_23, a_123) = "
      f"({L0.a_e:g}, {L0.a_12:g}, {L0.a_13:g}, {L0.a_23:g}, "
      f"{complex(L0.a_123):g})")
print(f"  positive: {werner3.is_positive_w3(L0)}, "
      f"CP: {werner3.is_cp_w3(L0)}, CCP: {werner3.is_ccp_w3(L0)}"
      "   (neither -> non-decomposable)")

for t in (1.0, 3.0, 5.6):
    c = werner3.rho_t_coeffs(d, t)
    cert = werner3.detect_entanglement_w3(c, grid=8)
    ppt = {k.split("_")[1]: v["verdict"] for k, v in cert.checks.items()
           if k.startswith("ppt")}
    print(f"\nrho_t at t = {t}:")
    print(f"  PPT verdicts: {ppt}")
    print(f"  L0 witness min eig: {cert.witnesses[0]['min_eig']:+.6e}")
    print(f"  verdict: {cert.verdict}")

print(f"\nextremal types: {werner3.S3Coeffs.KIND}")
ppt_state = werner3.S3Coeffs.from_tuple6(d, [Fraction(v) for v in (
    "166523776510/5029999975503", "1936168780/186296295389",
    "-15874292672/1676666658501", "2521386712/558888886167",
    "3552377465/372592590778", "0")])
print(f"an A-BC-PPT state that L0 misses: ppt {s3.ppt(ppt_state)}")
m, (A, B, C, sign) = s3.exact_minimum(ppt_state, "III")
print(f"  exact Type III optimum: A={A:.6f} B={B:.6f} C={C:+.6f} "
      f"sign={sign:+d}, min eig {m:+.6e}")
for grid in (2, 64):
    cert = werner3.detect_entanglement_w3(ppt_state, grid=grid)
    print(f"  grid {grid:>2}: {cert.verdict} by {cert.witnesses[-1]['id']} "
          f"({cert.checks['witness_sweep']['evidence']['count']} rows)")

print(f"\nanalytic witness value at t=1: -(2/3)/47 = {-(2/3)/47:+.6e}")
tm = werner3.t_max(d)
print(f"A-BC PPT threshold, the larger root of 5t^2 - 21t - 36: "
      f"t_max({d}) = {tm:.4f}"
      f"   (= (21+sqrt(1161))/10 = {(21+np.sqrt(1161))/10:.4f})")
