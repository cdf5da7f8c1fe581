"""
Double fourth-power representations: a two-parameter family and a search
=========================================================================

"""

# the degree-7 forms below satisfy p^4 + q^4 = r^4 + s^4 for every integer
# pair (a, b); the package reduces by the common gcd and records it
from biquadrank import euler_quadruple
from biquadrank.biquadrate import euler_raw_quadruple

for ab in [(1, 1), (2, 1), (3, 1), (3, 2)]:
    raw = euler_raw_quadruple(*ab)
    quad = euler_quadruple(*ab)
    print(f"(a, b) = {ab}: raw {raw}")
    print(f"  reduced by {quad.reduction}: {quad.components()}  n = {quad.n}")
    print(f"  degenerate = {quad.degenerate}")

# (1, 1) collapses to the classical 17 = 1^4 + 2^4 with both pairs equal;
# (2, 1) is the smallest nondegenerate member, n = 635318657

# the same numbers fall out of a parametrization-free exhaustive search
# over all pairs p <= q up to the base bound
from biquadrank import search_double_representations

print()
print("all double representations with both pairs bounded by 300:")
for hit in search_double_representations(300):
    print(f"  {hit.p}^4 + {hit.q}^4 = {hit.r}^4 + {hit.s}^4 = {hit.n}")

# every n found this way is congruent to 1 or 2 mod 16 and all of its odd
# prime divisors are 1 mod 8; the law reads them from the factorization of
# 2n, as the whole package does, and n's own has one 2 fewer
from biquadrank.arith import factor
from biquadrank.parity import prime_divisor_law

print()
for hit in search_double_representations(300):
    f = factor(2 * hit.n)
    assert prime_divisor_law(hit.n, f=f)
    primes = [(p, e - (p == 2)) for p, e in f.primes if (p, e) != (2, 1)]
    shown = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in primes)
    residues = [p % 8 for p, _ in primes]
    print(f"  n = {hit.n} = {shown}, primes mod 8: {residues}")
