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
        x = Fraction(x)
        return min(line.value(x) for line in self.lines)

    def active(self, x):
        """Lines achieving the minimum at ``x`` (coincident lines all count)."""
        x = Fraction(x)
        v = self.value(x)
        return [line for line in self.lines if line.value(x) == v]

    def breaking_points(self):
        """Sorted abscissas where the active set changes.

        These are exactly the points where two envelope lines of distinct
        slope meet on the envelope.
        """
        points = set()
        n = len(self.lines)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = self.lines[i], self.lines[j]
                if a.slope == b.slope:
                    continue
                x = (b.intercept - a.intercept) / (a.slope - b.slope)
                if a.value(x) == self.value(x):
                    points.add(x)
        return sorted(points)

    def __repr__(self):
        body = ", ".join(
            f"{line.intercept}+{line.slope}x" for line in self.lines
        )
        return f"Contour({body})"
