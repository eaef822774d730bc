"""Lower envelopes of finite line families and their breaking points.

The same contour machinery drives both solvers: for an algebraic equation
the lines are ``(leading exponent of coefficient i) + i*x``; for a
differential equation they are ``nu + sigma*x`` per monomial plus the
derivative line ``x - 1``.  A breaking point is an abscissa where the set
of envelope-achieving lines changes; these are the only admissible leading
exponents of solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import _as_exponent, _exponent


@dataclass(frozen=True)
class Line:
    """value(x) = intercept + slope * x, tagged with its source."""

    slope: Fraction
    intercept: Fraction
    key: object = None

    def value(self, x):
        return self.intercept + self.slope * x


class Contour:
    """min over a finite family of lines, as a function of the exponent."""

    def __init__(self, lines):
        self.lines = tuple(lines)
        if not self.lines:
            raise ValueError("contour needs at least one line")

    def value(self, x):
        x = _as_exponent(x)
        return _exponent(min(line.value(x) for line in self.lines))

    def active(self, x):
        """Lines achieving the minimum at ``x`` (coincident lines all count)."""
        x = _as_exponent(x)
        v = self.value(x)
        return [line for line in self.lines if line.value(x) == v]

    def breaking_points(self):
        """Sorted abscissas where the active set changes.

        These are the points where two envelope lines of distinct slope
        meet on the envelope.  At each x the minimum of intercept +
        slope*x is attained on the lower convex hull of the points
        (slope, intercept), so the breaking points are the negated slopes
        of the hull's edges: keep the least intercept per slope, sort
        once, and make one monotone-chain pass.
        """
        least = {}
        for line in self.lines:
            b = least.get(line.slope)
            if b is None or line.intercept < b:
                least[line.slope] = line.intercept
        hull = []
        for s, b in sorted(least.items()):
            # drop the last vertex while it is not strictly below the
            # chord from the one before it to (s, b)
            while len(hull) >= 2:
                (s1, b1), (s2, b2) = hull[-2], hull[-1]
                if (b2 - b1) * (s - s1) < (b - b1) * (s2 - s1):
                    break
                hull.pop()
            hull.append((s, b))
        return sorted(
            _exponent(Fraction(b1 - b2, s2 - s1))
            for (s1, b1), (s2, b2) in zip(hull, hull[1:])
        )

    def __repr__(self):
        body = ", ".join(
            f"{line.intercept}+{line.slope}x" for line in self.lines
        )
        return f"Contour({body})"
