"""Numerics for a left-opening parabolic target region and its radius results.

The package evaluates the disc-to-parabola map and its classical
companion targets with explicit branch conventions, builds the growth
extremals by series recurrence, provides the region geometry (margins,
inscribed discs, argument sector), and catalogs every sharp membership
radius together with an independent numerical oracle that re-derives it.
Import each name from the submodule that defines it (``parastar.maps``,
``parastar.radii``, ...); the package root loads none of them.
"""

__version__ = "0.1.0"
