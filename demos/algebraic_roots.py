"""Solving polynomial equations over Puiseux series, step by step.

The machinery: draw the contour (lower envelope) of the coefficient
lines, read candidate leading exponents off its breaking points, solve
each vertex polynomial for the leading coefficients, recenter, repeat.
"""

from fractions import Fraction as F

from puiseux import (
    PuiseuxSeries,
    SeriesPolynomial,
    breaking_data,
    contour_of,
    solve_algebraic,
)

X = PuiseuxSeries.x_power
ONE = PuiseuxSeries.one()

# ----------------------------------------------------------------------
# y^2 - y + x = 0: the classic two-branch example.
p = SeriesPolynomial([X(1), -ONE, ONE])

print("equation: y^2 - y + x = 0")
print("contour lines:", contour_of(p))
for v in breaking_data(p):
    print(f"  breaking point x = {v.x}, active coefficient indices "
          f"{v.active_indices}")

# The envelope breaks at 0 (where y^2 and -y balance) and at 1 (where -y
# and x balance): solutions start as c*x^0 = 1 or as c*x^1.
result = solve_algebraic(p, bound=F(9, 2))
print("\nbranches to residual bound 9/2:")
for b in result.branches:
    print(f"  y = {b.series}")
    residual = p.evaluate(b.series)
    print(f"     residual after substitution: {residual}")

# ----------------------------------------------------------------------
# Fractional exponents appear on their own when the polygon demands them.
q = SeriesPolynomial([-X(1), PuiseuxSeries.zero(), ONE])  # y^2 = x
print("\nequation: y^2 - x = 0")
for b in solve_algebraic(q, 3).branches:
    print(f"  y = {b.series}  (multiplicity {b.multiplicity}, residual "
          f">= {b.residual_bound})")

# A double root is reported once, with its multiplicity.
double = SeriesPolynomial([ONE, PuiseuxSeries.constant(-2), ONE])
print("\nequation: (y - 1)^2 = 0")
for b in solve_algebraic(double, 2).branches:
    print(f"  y = {b.series}  (multiplicity {b.multiplicity})")

# ----------------------------------------------------------------------
# A root may start at a negative exponent: here y ~ -x^(-1).  Substituting
# it back leaves a residual at or past its certified bound.
generic = SeriesPolynomial([ONE + X(1), X(-1), ONE])
print("\nequation: y^2 + x^(-1)*y + (1 + x) = 0")
for b in solve_algebraic(generic, 5).branches:
    residual = generic.evaluate(b.series)
    print(f"  y = {b.series}")
    print(f"     residual valuation {residual.val_floor()} >= {b.residual_bound}: "
          f"{residual.val_floor() >= b.residual_bound}")

# ----------------------------------------------------------------------
# Irrational leading coefficients: rational mode reports them instead of
# guessing, algebraic mode adjoins them exactly.
irr = SeriesPolynomial([-X(1, 2), PuiseuxSeries.zero(), ONE])  # y^2 = 2x
print("\nequation: y^2 - 2x = 0")
rational = solve_algebraic(irr, 3)
print(f"  rational mode: {len(rational.branches)} branches, "
      f"{len(rational.unresolved)} unresolved vertex polynomial(s)")
exact = solve_algebraic(irr, 3, mode="algebraic")
for b in exact.branches:
    print(f"  algebraic mode: y = {b.series}")
