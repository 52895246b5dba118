"""Growth sandwich and its limits at r = 1, each computed by two routes.

Run:  python demos/03_growth_and_covering.py
"""

import numpy as np

from parastar import region
from parastar.oracle import growth_bounds, member_growth_modulus, sample_schwarz_function
from parastar.series import extremal_lower, extremal_upper

# The extremal series z exp(int k(+-t)/t dt) give the sharp growth
# envelope; adaptive quadrature of the same integrals is the second
# route.  Both agree to ~1e-15.
f_lo = extremal_lower(300)
f_hi = extremal_upper(300)
print(f"{'r':>4s} {'lower (quad)':>14s} {'lower (series)':>15s} "
      f"{'upper (quad)':>14s} {'upper (series)':>15s}")
for r in (0.1, 0.3, 0.5, 0.7, 0.9):
    lo, hi = growth_bounds(r)
    print(f"{r:4.1f} {lo:14.10f} {f_lo(r).real:15.10f} {hi:14.10f} {f_hi(r).real:15.10f}")

# Random members (Schwarz maps built from Blaschke factors) respect the
# envelope.
rng = np.random.default_rng(7)
print("\nrandom members inside the envelope at r = 0.6:")
lo, hi = growth_bounds(0.6)
for i in range(5):
    w_fn, zeros = sample_schwarz_function(rng)
    val = member_growth_modulus(w_fn, 0.6)
    print(f"  member {i}: |f(0.6)| = {val:.8f}  in [{lo:.8f}, {hi:.8f}]"
          f"  ({len(zeros)} Blaschke factor(s))")

# Limits at r = 1: one quadrature each against the closed forms in
# Catalan's G and zeta(3).  The upper limit bounds |f| on the disc; the
# lower one is the radius of the disc that every image covers (Rouche).
lo, hi = growth_bounds(1.0)
print(f"\nupper limit, |f| < {hi:.16f} on the disc "
      f"(closed form {region.GROWTH_UPPER_LIMIT:.16f})")
print(f"covered radius     {lo:.16f} "
      f"(closed form {region.COVERED_RADIUS:.16f})")
