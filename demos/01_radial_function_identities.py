"""Radial special functions: identity checks and the scaled representation.

Walks the spherical Bessel/Hankel ladder machinery through its two exact
identities and shows why the log-magnitude representation matters once the
degree is large and the argument small.
"""

import numpy as np

from cloaksim import specfun

print("=== Wronskian and cross-product identities ===")
worst_w = worst_c = 0.0
for t in np.linspace(0.1, 50.0, 30):
    lad = specfun.bessel_ladder(60, float(t))
    for n in range(61):
        j = lad.jn(n).to_complex().real
        y = lad.yn(n).to_complex().real
        jp = lad.jn(n - 1).to_complex().real - (n + 1) / t * j
        yp = lad.yn(n - 1).to_complex().real - (n + 1) / t * y
        worst_w = max(worst_w, abs(t * t * (j * yp - jp * y) - 1.0))
        cross = (lad.riccati_j(n) * lad.hn(n)
                 - lad.riccati_h(n) * lad.jn(n)).to_complex()
        worst_c = max(worst_c, abs(cross + 1j / t))
print(f"max |t^2 W(j, y) - 1|        over n<=60, t in [0.1, 50]: {worst_w:.3e}")
print(f"max |J_n h_n - H_n j_n + i/t| on the same grid:          {worst_c:.3e}")

print()
print("=== Where plain doubles die ===")
for n, t in ((30, 1e-2), (80, 1e-3), (150, 1e-4)):
    lad = specfun.bessel_ladder(n, t)
    j, y = lad.jn(n), lad.yn(n)
    print(f"n={n:4d} t={t:8.0e}   log|j_n| = {j.log_mag:10.1f}   "
          f"log|y_n| = {y.log_mag:10.1f}   (plain doubles hold |log| < 709)")

print()
print("=== Small-argument leading forms ===")
print("ratio of the exact value to its leading form, approaching 1 as n >> t:")
for n in (5, 10, 20, 40):
    t = 0.05
    lad = specfun.bessel_ladder(n, t)
    j, h = lad.jn(n), lad.hn(n)
    lead_j, lead_h, _, _ = specfun.small_arg_leading(n, t)
    rj = (j / lead_j).to_complex().real
    rh = abs((h / lead_h).to_complex())
    print(f"  n={n:3d}: j ratio {rj:.8f}   |h| ratio {rh:.8f}")
