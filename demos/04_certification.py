"""The differential-inequality certifier and what it implies.

A normalised f with |t(1 + z f''/f') + (1-t) z f'/f - 1| < (3+2t)/6 on
the disc has z f'/f confined to the disc |w - 1| < 1/2, which sits
inside the parabolic region.  The certifier samples the inequality on
the circle |z| = 0.999 after counting the zeros of f(z)/z and f' inside
it, and, on a pass, asserts the conclusion too.

Run:  python demos/04_certification.py
"""

import numpy as np

from parastar.maps import target_map
from parastar.oracle import certify_sufficient_condition, check_subordination_inclusion
from parastar.series import PowerSeries
from parastar.verify import certify_sample_members

# The quadratic family z + c z^2 is the classical threshold example at
# t = 0: sup |c z/(1 + c z)| = c/(1 - c), so c = 0.3 passes (3/7 < 1/2)
# and c = 0.4 fails (2/3 > 1/2).
for c in (0.3, 0.4):
    rep = certify_sufficient_condition(PowerSeries([0.0, 1.0, c]), t=0.0)
    print(f"c = {c}: sup = {rep.oracle_value:.6f} vs bound {rep.closed_form:.6f} "
          f"-> {'pass' if rep.passed else 'fail'}")

# At t = 1 the inequality reads |z f''/f'| < 5/6.
rep = certify_sufficient_condition(PowerSeries([0.0, 1.0, 0.1]), t=1.0)
print(f"t = 1 bound: {rep.closed_form:.6f}; quadratic c=0.1 sup {rep.oracle_value:.6f}")

# Seeded random polynomials that pass the inequality always land inside
# the region (the certifier records disc and region margins).
passing = certify_sample_members(n_members=25, t=0.5, seed=1)
inside = sum(1 for r in passing if r.passed)
print(f"\nrandom members at t = 0.5: {inside}/{len(passing)} certified and contained")
print("example report notes:", passing[0].notes)

# Containment checking is available directly for any target map.
r = float(np.hypot(1.0, 0.0)) * 0.5
rep = check_subordination_inclusion(target_map("sigmoid"), r)
print(f"\nsigmoid image at r = {r}: worst margin {rep.oracle_value:.6f} "
      f"({'inside' if rep.passed else 'outside'})")
