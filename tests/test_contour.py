"""Lower-envelope and breaking-point behavior."""

from fractions import Fraction as F

import corpora
from oracles import pairwise_breaking_points
from puiseux.contour import Contour, Line


def mk(*pairs):
    return Contour([Line(F(s), F(b), key=i) for i, (b, s) in enumerate(pairs)])


def test_envelope_value_is_min():
    c = mk((1, 0), (0, 2))  # lines 1 and 2x
    assert c.value(0) == 0
    assert c.value(1) == 1
    assert c.value(F(1, 4)) == F(1, 2)


def test_breaking_point_of_two_lines():
    c = mk((1, 0), (0, 2))
    assert c.breaking_points() == [F(1, 2)]
    assert {line.key for line in c.active(F(1, 2))} == {0, 1}


def test_three_line_envelope():
    # lines 2x, x, 1 break at 0 and 1
    c = mk((0, 2), (0, 1), (1, 0))
    assert c.breaking_points() == [0, 1]
    assert {line.key for line in c.active(0)} == {0, 1}
    assert {line.key for line in c.active(1)} == {1, 2}


def test_single_line_has_no_breaks():
    c = mk((0, 3))
    assert c.breaking_points() == []


def test_off_envelope_intersections_are_ignored():
    # lines 3, 2+x, 2x: 3 and 2+x meet at x=1 where 2x=2 is lower
    c = mk((3, 0), (2, 1), (0, 2))
    assert F(1) not in c.breaking_points()


def test_coincident_lines_are_both_active():
    c = Contour(
        [Line(F(1), F(-1), key="a"), Line(F(1), F(-1), key="b"),
         Line(F(0), F(1), key="c")]
    )
    active = {line.key for line in c.active(2)}
    assert active == {"a", "b", "c"}


def test_rational_slopes():
    c = mk((-2, 2), (-1, 0))
    assert c.breaking_points() == [F(1, 2)]
    assert c.value(F(1, 2)) == -1


def test_breaking_points_match_pairwise_oracle():
    # repeated slopes, coincident lines and three lines through one point
    for lines in corpora.line_sets(20261018, 2000):
        c = Contour(lines)
        points = c.breaking_points()
        assert points == pairwise_breaking_points(c.lines)
        for x in points:
            assert len({line.slope for line in c.active(x)}) >= 2
