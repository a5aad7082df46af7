"""The power-law bookkeeping behind the blow-up proof, measured.

Testing the equation against the compact window psi = psi1(x)^ell psi2(t)^eta
bounds the source integral by eight window integrals.  Each one scales as a
pure power of the horizon T; when every exponent is negative while the
velocity-mean data term survives, letting T grow forces the contradiction
that proves blow-up.  Below, the fitted slopes of the measured integrals are
compared with the predicted exponents for one subcritical configuration per
branch, and the largest exponent is shown to hit zero exactly at the
threshold.
"""

from blowuplab import Params, beta_threshold, scaling_d
from blowuplab.weakform import TERM_NAMES, measure_term_slopes, predicted_exponents

horizons = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]

for p, n, beta in ((2.0, 1, 0.0), (2.0, 1, -3.0)):
    d = scaling_d(beta)
    params = Params(n=n, p=p, beta=beta)
    print(f"p = {p}, n = {n}, beta = {beta}, d = {d} "
          f"(threshold {beta_threshold(n, beta):.4g})")
    table = measure_term_slopes(params, d, horizons)
    print("  term      fitted     predicted  |err|")
    for name in TERM_NAMES:
        row = table[name]
        print(
            f"  {name:8s}  {row['slope']:+8.4f}  {row['predicted']:+8.4f}  "
            f"{row['abs_error']:.4f}"
        )
    print()

print("At the threshold exponent the leading power is exactly zero:")
for n, beta in ((2, 0.0), (1, -3.0)):
    p_star = beta_threshold(n, beta)
    exps = predicted_exponents(Params(n=n, p=p_star, beta=beta), scaling_d(beta))
    biggest = max(v for k, v in exps.items() if k != "D_data")
    print(f"  n = {n}, beta = {beta}: p* = {p_star:.4g}, max window exponent = {biggest}")
