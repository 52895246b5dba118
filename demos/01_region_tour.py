"""Tour of the parabolic region: margins, inscribed discs, argument sector.

Run:  python demos/01_region_tour.py
Writes region_tour.svg next to this script.
"""

import pathlib

import numpy as np

from parastar.maps import parabola_map
from parastar.region import (
    argument_sector_check, inscribed_disc_radius, margin, real_part_bounds,
)

# The region {(Im w)^2 < 3 - 2 Re w} has vertex 3/2 and opens leftward.
# Membership comes with a signed margin, positive inside.
for w in (1.0, 1.5, 1 + 1j, -2 + 1j, 0.5 - 0.5j):
    print(f"w = {w!s:>12}: margin = {margin(w):+.6f}  inside = {margin(w) > 0.0}")

# The map value at -r maximises the real part on |z| = r, the value at +r
# minimises it; compare the closed bounds with brute force at r = 0.5.
r = 0.5
angles = np.linspace(-np.pi, np.pi, 100_000, endpoint=False)
vals = np.real(parabola_map(r * np.exp(1j * angles)))
lo, hi = real_part_bounds(r)
print(f"\nreal-part bounds at r={r}: closed ({lo:.10f}, {hi:.10f})")
print(f"                       brute ({vals.min():.10f}, {vals.max():.10f})")

# Maximal inscribed discs: the nearest boundary points are
# (1 + a, +-sqrt(1 - 2a)) for a <= 1/2, the vertex for 1/2 < a < 3/2.
print("\ninscribed discs:")
for a in (-1.0, 0.0, 0.5, 1.0, 1.4):
    x, y = (1.0 + a, np.sqrt(1.0 - 2.0 * a)) if a <= 0.5 else (1.5, 0.0)
    print(f"  a = {a:+.2f}: radius {inscribed_disc_radius(a):.10f}"
          f"  (nearest boundary point {x:.4f} +- {y:.4f}i)")

# The whole region sits inside the sector |arg(w - 2)| > 3pi/4; the
# tangency points 1 +- i are the only boundary contacts.
print("\nargument sector:")
for w in (1.0, 1.4 + 0.4j, 1 + 1j):
    print(f"  w = {w!s:>10}: sector check = {argument_sector_check(w)}")

# Emit the standard figure: boundary parabola, tangent rays, two discs.
from parastar.plots import curves_to_svg, region_figure

out = pathlib.Path(__file__).with_name("region_tour.svg")
out.write_text(curves_to_svg(region_figure(disc_centers=(0.0, 1.0))))
print(f"\nwrote {out}")
