"""Deterministic SVG and CSV emission for region and map-image figures.

No timestamps, no environment-dependent metadata: identical inputs give
byte-identical output.  Curves are plain complex polylines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radii, region
from .errors import DomainError
from .maps import left_parabola, target_map
from .oracle import SCHEMA

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Curve:
    name: str
    points: np.ndarray  # complex


def _circle_angles(samples: int) -> np.ndarray:
    # half-step offset keeps z = 1 (the map singularity) off the grid; every
    # figure draws its circles and curves with at least 64 samples
    if samples < 64:
        raise DomainError("need at least 64 samples")
    k = np.arange(samples)
    return -math.pi + (k + 0.5) * (2.0 * math.pi / samples)


def region_figure(disc_centers=(), samples: int = 256) -> list[Curve]:
    """Boundary parabola (|Im w| <= 3), tangent rays and any requested inscribed discs."""
    phis = _circle_angles(samples)
    curves = [Curve("boundary", region.boundary_points(samples))]
    x = np.linspace(-3.0, 2.0, samples)
    curves.append(Curve("tangent_plus", x + 1j * (x - 2.0)))
    curves.append(Curve("tangent_minus", x - 1j * (x - 2.0)))
    for a in disc_centers:
        r = region.inscribed_disc_radius(a)
        curves.append(Curve(f"disc_a={a:g}", a + r * np.exp(1j * phis)))
    return curves


def map_image_figure(target: str = "left_parabola", r: float = 0.9,
                     samples: int = 256, **params) -> list[Curve]:
    """Image of the circle |z| = r under a named target map, with the region."""
    z = r * np.exp(1j * _circle_angles(samples))
    if not 0.0 <= r < 1.0:
        raise DomainError("map images need r < 1")
    phi = target_map(target, **params)
    return [Curve("boundary", region.boundary_points(samples)),
            Curve(f"{target}_r={r:g}", np.asarray(phi(z)))]


def corollary_figure(entry_id: str = "r7_nephroid", samples: int = 256) -> list[Curve]:
    """Target-class boundary with the class image circle at the sharp radius."""
    if entry_id not in radii.COROLLARY:
        raise DomainError(f"no corollary figure for {entry_id!r}")
    zb = np.exp(1j * _circle_angles(samples))
    entry = radii.get_entry(entry_id)
    r = entry.closed_form
    return [Curve(f"{radii.COROLLARY[entry_id][1]}_boundary", np.asarray(entry.target(zb))),
            Curve(f"image_r={r:.6f}", np.asarray(left_parabola(r * zb)))]


def curves_to_csv(curves) -> str:
    lines = [f"# schema: {SCHEMA}", "curve,index,x,y"]
    for curve in curves:
        for i, p in enumerate(curve.points):
            lines.append(f"{curve.name},{i},{p.real:.12g},{p.imag:.12g}")
    return "\n".join(lines) + "\n"


_WIDTH, _HEIGHT = 800, 600  # SVG canvas in pixels


def curves_to_svg(curves) -> str:
    xs = np.concatenate([c.points.real for c in curves])
    ys = np.concatenate([c.points.imag for c in curves])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad_x = 0.05 * (x1 - x0 or 1.0)
    pad_y = 0.05 * (y1 - y0 or 1.0)
    x0, x1 = x0 - pad_x, x1 + pad_x
    y0, y1 = y0 - pad_y, y1 + pad_y
    sx = _WIDTH / (x1 - x0)
    sy = _HEIGHT / (y1 - y0)

    def tx(p):
        return (p.real - x0) * sx, (y1 - p.imag) * sy  # flip y for SVG

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">']
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " L ".join(f"{x:.3f},{y:.3f}" for x, y in map(tx, curve.points))
        parts.append(f'  <path id="{curve.name}" d="M {coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
