"""Where does the theory place the blow-up region?

The damped wave problem u_tt - Lap(u) - b0 (1+t)^(-beta) Lap(u_t) = |u|^p has
a closed-form blow-up threshold in (n, beta): every exponent 1 < p <= thr
blows up in finite time for positive-mean velocity data.  This script prints
the threshold landscape and shows how it sits below the Strauss exponent of
the undamped wave equation.
"""

import math

from blowuplab import beta_threshold, classify, kato_threshold, scaling_d, strauss_exponent


def fmt(x):
    return "inf" if math.isinf(x) else f"{x:.5f}"


print("Kato vs Strauss exponents (undamped reference):")
print("  n   kato          strauss")
for n in range(2, 7):
    print(f"  {n}   {fmt(kato_threshold(n)):<12}  {fmt(strauss_exponent(n)):<12}")
print()

print("Damping-power dependence of the threshold (n = 1, 2, 3):")
print("  beta    d       thr(n=1)   thr(n=2)   thr(n=3)")
for beta in (2.0, 0.0, -1.0, -2.0, -3.0, -5.0):
    row = [fmt(beta_threshold(n, beta)) for n in (1, 2, 3)]
    print(f"  {beta:+.1f}   {scaling_d(beta):.1f}     {row[0]:<9}  {row[1]:<9}  {row[2]:<9}")
print()

print("Region verdicts for a few sample points (n=3):")
for p in (1.5, 2.0, 2.2, 3.0):
    verdict = classify(3, 0.0, p).value
    print(f"  p = {p}: {verdict}")
print()
print("Above the threshold nothing is claimed either way; the sweep demo")
print("labels such runs SurvivedHorizon rather than 'global existence'.")
