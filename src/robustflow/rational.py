"""Exact rational arithmetic.

All flow values and capacities in this package are exact rationals of the
one type ``fractions.Fraction``; ``rat()`` is the canonical constructor.
Model LP coefficients are plain ``int``s, which hash, compare and print
like the equal ``Fraction``; the LP layer turns each row into integers
once, on its way into the tableau (:mod:`robustflow.lp`).  The exact
checks put a whole vector of values over one common denominator
(:func:`common_denominator`) and compare integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Union

BACKEND = "fractions"


def rat(p: Union[int, str, Fraction] = 0, q: int = 1) -> Fraction:
    """Build an exact rational from an int, string "p/q" or Fraction."""
    return Fraction(p) / q if q != 1 else Fraction(p)


ZERO = rat(0)
ONE = rat(1)


def common_denominator(values: Sequence) -> tuple:
    """``(D, numerators)``: the least common denominator of ``values`` (ints
    or Fractions) and the list of the integers ``value * D``, in order."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse the on-disk rational format: an integer or a "p/q" string."""
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return rat(text)
    if isinstance(text, str):
        body = text.strip()
        if "/" in body:
            num, _, den = body.partition("/")
            p, q = int(num), int(den)
            if q == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return rat(p, q)
        return rat(int(body))
    raise ValueError(f"not a rational: {text!r}")


def format_rational(value) -> str:
    """Serialize a rational as "p/q", or a plain integer string when q == 1."""
    return str(value)
