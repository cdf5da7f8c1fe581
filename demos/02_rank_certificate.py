"""
A rank certificate for n = 635318657
====================================

"""

# analyze() assembles the full chain for the curve y^2 = x^3 - n x:
# representations, constructed points, canonical heights, descent images,
# root number, and the resulting rank bounds
from biquadrank import analyze

cert = analyze(ab=(2, 1))

print(f"n = {cert.n}, torsion {cert.torsion}")
print(f"  representation {cert.quadruple.components()}")

# each pair (p, q) with p^4 + q^4 = n puts (-p^2, p*q^2) and (-q^2, q*p^2)
# on the curve; two representations give four points
print()
print("constructed points and canonical heights:")
for P, h in zip(cert.points, cert.heights):
    print(f"  x = {P.x}  height {h.value:.6f} (+/- {h.error_bound:.1e})")

print()
print(f"gram determinant  {cert.gram.determinant:.6f}")
print(f"independent points {cert.independence}")

# the descent sees rank >= 3 from square classes alone; the height pairing
# certifies all four points independent; the root number has the parity of
# the conditional bound
print()
print(f"phi image order {cert.phi.order}, psi image order {cert.psi.order}")
print(f"descent lower bound      {cert.descent_lower}")
print(f"unconditional lower bound {cert.unconditional_lower}")
print(f"conditional lower bound   {cert.conditional_lower}")
print(f"proven upper bound        {cert.heuristic_upper}")
print(f"root number {cert.root.omega:+d} ({cert.root.justification})")

# the certificate serializes to one JSON line; parsing re-runs every
# check of the evidence, and reverify() re-derives the bounds from scratch
from biquadrank import parse_certificate, reverify, to_json_line

line = to_json_line(cert)
again = parse_certificate(line)
print()
print(f"serialized to {len(line)} bytes; round-trip reverifies: {reverify(again)}")

from biquadrank.certificate import render_table

print()
print(render_table(cert))
