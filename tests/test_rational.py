"""Exact rational constructor, parsing and formatting."""

from fractions import Fraction

import pytest

from robustflow import BACKEND, ONE, ZERO, format_rational, parse_rational, rat


def test_backend_is_declared():
    assert BACKEND == "fractions"
    assert type(rat(1, 3)) is Fraction


def test_rat_constructors_agree():
    assert rat(3, 6) == rat(1, 2) == rat("1/2") == rat(Fraction(1, 2))
    assert rat() == ZERO == 0
    assert rat(1) == ONE == 1
    assert rat(-7, 2) == -rat(7, 2)


def test_rat_arithmetic_is_exact():
    third = rat(1, 3)
    assert third + third + third == 1
    assert rat(1, 10) + rat(2, 10) == rat(3, 10)
    total = sum((rat(1, k) for k in range(1, 12)), ZERO)
    assert total == rat(83711, 27720)


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(5) == 5
    assert parse_rational("5") == 5
    assert parse_rational("-3/4") == rat(-3, 4)
    assert parse_rational(" 9/12 ") == rat(3, 4)


@pytest.mark.parametrize(
    "bad", ["1/0", "x", "1.5", None, True, 2.5, "1_000", "\u0663", "4/ 6", "4 /6", "1_1/1_0"]
)
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_roundtrips():
    for value in (rat(0), rat(7), rat(-7), rat(22, 7), rat(-22, 7)):
        assert parse_rational(format_rational(value)) == value
    assert format_rational(rat(4, 2)) == "2"
    assert format_rational(rat(1, 2)) == "1/2"


def test_common_denominator_scales_exactly():
    from robustflow.rational import common_denominator

    assert common_denominator([]) == (1, [])
    assert common_denominator([3, -2]) == (1, [3, -2])
    values = [Fraction(1, 2), 4, Fraction(-5, 6), ZERO, Fraction(2, 7)]
    den, nums = common_denominator(values)
    assert den == 42
    assert nums == [21, 168, -35, 0, 12]
    assert [Fraction(n, den) for n in nums] == values
