"""
Descent generators, the quartic factors, and two corrected misprints
====================================================================

"""

# the raw parametrized n factors as a product of four quartic forms;
# b1 = B*D and b2 = -A*C are the coefficients that drive the descent
from biquadrank import euler_quadruple
from biquadrank.biquadrate import quartic_factors

f = quartic_factors(2, 1)
print(f"(a, b) = (2, 1): A = {f.A}, B = {f.B}, C = {f.C}, D = {f.D}")
print(f"  b1 = B*D = {f.b1}, b2 = -A*C = {-f.A * f.C}, product -n = {f.b1 * -f.A * f.C}")

# B*D - b^4 * A*C is a perfect square: the square of a^2 times a sextic
# witness polynomial in a, b
from biquadrank.biquadrate import fourth_power_witness, witness_root_polynomial

a, b = 2, 1
K, N = fourth_power_witness(a, b)
inner = witness_root_polynomial(a, b)
print()
print(f"B*D - b^4*A*C = {K} = {N}^2, with N = a^2 * |{inner}|")

# misprint 1: the identity circulates with a cubic third term in the
# witness polynomial; that version already fails at (2, 1)
printed_inner = a**6 + a**4 * b**2 + 4 * a**3 * b**4 - 5 * b**6
print(f"printed variant gives {a**4 * printed_inner**2}, not {K}")
assert a**4 * printed_inner**2 != K

# the descent itself: phi on y^2 = x^3 - n x, psi on the dual curve, each
# image the F2 span of a few generator classes; every generator is a
# rational point the verifier can re-check on its curve, its class is that
# of x (of b at (0, 0)), and the order of the span is 2^rank
from biquadrank.curve import curve_from_n, dual_curve
from biquadrank.descent import phi_image, psi_image

quad = euler_quadruple(2, 1)
E = curve_from_n(quad.n)
phi = phi_image(E, quad)
psi = psi_image(dual_curve(E), quad)

print()
for side, img in (("phi", phi), ("psi", psi)):
    print(f"{side} image, rank {img.rank}, order {img.order}:")
    for P, c in zip(img.generators, img.classes):
        print(f"  class {c:>12d}  from ({P.x}, {P.y})")

from biquadrank.descent import rank_lower_bound
from biquadrank.parity import parity_adjusted_bound, root_number

lower = rank_lower_bound(phi, psi)
omega = root_number(quad.n, quad=quad)
print(f"rank lower bound {lower}, parity-adjusted {parity_adjusted_bound(lower, omega)}")

# misprint 2: for the prime 877 the published generator's denominator
# drops one digit; the corrected 20-digit value makes x^3 + 877x an exact
# rational square, the printed 19-digit value does not
from fractions import Fraction

from biquadrank.arith import is_square
from biquadrank.reference import load_reference

spec = load_reference()["exact_square"]
c, u = int(spec["coefficient"]), int(spec["u"])
v, v_printed = int(spec["v"]), int(spec["v_printed"])

x = Fraction(u, v) ** 2
w = x**3 + c * x
print()
print(f"coefficient {c}: corrected v has {len(str(v))} digits, printed has {len(str(v_printed))}")
print(f"  corrected: numerator square {is_square(w.numerator)}, denominator square {is_square(w.denominator)}")
print(f"  printed:   u^4 + {c}*v^4 square? {is_square(u**4 + c * v_printed**4)}")
