"""SVG rendering of planar realizations in the Poincare disk.

Each coordinate (s, u) is realized as the canonical curve in the upper
half-plane z = x + i y: the line Re(conj(beta) z) = k with unit normal
beta = (-mu, lambda) and k = -mu sinh(s - Delta) for lambda < 1 (the ray from
sinh(s - Delta) at the boundary angle theta, cos theta = lambda), and
beta = (0, 1), k = e^{-s} for lambda = 1.  The conformal map
z -> (z - i)/(z + i) takes it to the circle of centre (k - i beta_1)/A and
radius 1/|A|, A = k + beta_2, rotated about the centre by the direction angle
of u.  Each curve is one exact <circle> in one group clipped to the image of
B_R, the concentric circle of radius tanh(R/2), so the SVG renderer clips.
A = 0 exactly at s = 2 Delta, where the line passes through -i: that curve
is the chord between its ideal points rot 1 and rot (a - i)/(a + i),
a = sinh(s - Delta).
"""

from __future__ import annotations

import cmath
import math

from .errors import UnsupportedDimensionError

STYLE = {
    "geodesic": "stroke:#1f77b4;stroke-width:0.004;fill:none",
    "equidistant": "stroke:#2ca02c;stroke-width:0.004;fill:none",
    "horocycle": "stroke:#d62728;stroke-width:0.004;fill:none",
}


def curve_class(lam: float) -> str:
    if lam == 0.0:
        return "geodesic"
    if lam == 1.0:
        return "horocycle"
    return "equidistant"


def disk_circle(s: float, angle: float, geom):
    """(centre, radius) of the disk image of the curve at signed distance s.

    angle rotates the curve about the disk centre.  None at s = 2 Delta
    (lambda < 1), where the image is a chord, not a circle.
    """
    if geom.is_horospheric:
        beta1, k = 0.0, math.exp(-s)
        A = k + 1.0
    else:
        beta1, k = -geom.mu, -geom.mu * math.sinh(s - geom.delta)
        # k + lambda without cancellation (sinh Delta = lambda / mu)
        A = 2.0 * geom.mu * math.cosh(0.5 * s) * math.sinh(geom.delta - 0.5 * s)
    if A == 0.0:
        return None
    return cmath.rect(1.0, angle) * complex(k, -beta1) / A, 1.0 / abs(A)


def _curve(s: float, angle: float, geom) -> str:
    """The SVG element of one curve: its circle, or its chord at s = 2 Delta."""
    circle = disk_circle(s, angle, geom)
    if circle is None:
        rot = cmath.rect(1.0, angle)
        a = math.sinh(s - geom.delta)
        end = rot * (a - 1j) / (a + 1j)
        return (f'<line x1="{rot.real!r}" y1="{rot.imag!r}" '
                f'x2="{end.real!r}" y2="{end.imag!r}" />')
    c, r = circle
    return f'<circle cx="{c.real!r}" cy="{c.imag!r}" r="{r!r}" />'


def _circle(r, style):
    return f'<circle cx="0" cy="0" r="{r!r}" style="{style}" />'


def render_disk(sample) -> str:
    """SVG document showing a d=2 realization in the Poincare disk."""
    config = sample.config
    if config.d != 2:
        raise UnsupportedDimensionError("disk rendering requires d = 2")
    if sample.u is None:
        raise ValueError("rendering needs sampled directions")
    geom = config.geometry
    radius = math.tanh(config.R / 2.0)
    body = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.05 -1.05 2.1 2.1">',
        _circle(1.0, "stroke:#000000;stroke-width:0.006;fill:none"),
        _circle(radius, "stroke:#888888;stroke-width:0.003;fill:none;"
                        "stroke-dasharray:0.02,0.02"),
        f'<defs><clipPath id="ball"><circle cx="0" cy="0" r="{radius!r}" />'
        '</clipPath></defs>',
        f'<g clip-path="url(#ball)" style="{STYLE[curve_class(geom.lam)]}">',
    ]
    for s, u in zip(sample.s, sample.u):
        body.append(_curve(float(s), math.atan2(u[1], u[0]), geom))
    body += ["</g>", "</svg>"]
    return "\n".join(body)
