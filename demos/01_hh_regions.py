"""Walk through the signed-permutation covariant channel family.

The three-parameter family psi_{a,b,c} mixes depolarizing, identity,
transpose, and diagonal-pinching maps.  Positivity, complete positivity, and
PPT-ness are all cut out by explicit linear inequalities, so the whole
geometry can be explored without a single eigensolve -- and then
double-checked with one.
"""

import numpy as np

from covwit import hh, oracle

d = 3
print(f"=== psi_(a,b,c) on M_{d} ===\n")

print("CPTP tetrahedron vertices (Choi PSD):")
for v in hh.extremals(d).cp_vertices:
    lo = np.linalg.eigvalsh(hh.build_psi(v).choi(normalized=True))[0]
    print(f"  (a,b,c) = ({v.a:+.4f}, {v.b:+.4f}, {v.c:+.4f})"
          f"   min Choi eig = {lo:+.2e}")

print("\nCCP vertices (transpose compositions, b <-> c):")
for v in hh.extremals(d).ccp_vertices:
    print(f"  (a,b,c) = ({v.a:+.4f}, {v.b:+.4f}, {v.c:+.4f})")

print("\nPositivity is strictly larger than CP union CCP.")
co = hh.HHCoeffs(d, 0.9, 0.55, -0.25)
pos, _ = hh.is_positive(co)
print(f"  example {co.a, co.b, co.c}: positive={pos}, "
      f"cp={hh.is_cptp(co)}, ccp={hh.is_ccp(co)}")

print("\nOutside a facet, the designated vector certifies non-positivity:")
bad = hh.HHCoeffs(d, 0.0, -0.6, 0.0)
ok, tag = hh.is_positive(bad)
v = oracle.counterexample_vector(tag, d)
out = hh.build_psi(bad)(np.outer(v, v.conj()))
print(f"  (0, -0.6, 0): violated constraint #{tag}, witness vector gives "
      f"min eig {np.linalg.eigvalsh(out)[0]:+.4f}")

print("\nPPT = entanglement breaking on this family.")
for co in (hh.HHCoeffs(d, 1.0, 1 / 3, 1 / 3), hh.HHCoeffs(d, 0.5, 0.5, 0.0)):
    cert = hh.decide(co)
    print(f"  (a,b,c)=({co.a:.3f},{co.b:.3f},{co.c:.3f}) -> {cert.verdict}"
          f"  (witness sweep min eig "
          f"{min(w['min_eig'] for w in cert.witnesses):+.2e})")
