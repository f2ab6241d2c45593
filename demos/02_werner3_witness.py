"""Detect PPT entanglement in tripartite Werner-symmetric states.

The state family rho_t is PPT across the A-BC cut for all t up to a
threshold, yet entangled for every t > 0.  A single non-decomposable
covariant witness map certifies this with a closed-form negative eigenvalue.
"""

import numpy as np

from covwit import werner3

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

print(f"\nanalytic witness value at t=1: -(2/3)/47 = {-(2/3)/47:+.6e}")
tm = werner3.t_max(d)
print(f"A-BC PPT threshold, the larger root of 5t^2 - 21t - 36: "
      f"t_max({d}) = {tm:.4f}"
      f"   (= (21+sqrt(1161))/10 = {(21+np.sqrt(1161))/10:.4f})")
