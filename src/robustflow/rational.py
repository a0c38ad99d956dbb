"""Exact rational arithmetic backend.

All flow values, capacities and LP coefficients in this package are exact
rationals.  gmpy2's ``mpq`` is used when it is installed (the optional
``gmpy2`` extra), otherwise ``fractions.Fraction``.
Both types hash and compare interchangeably, so callers may mix them freely;
``rat()`` is the canonical constructor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

try:
    from gmpy2 import mpq as _mpq

    BACKEND = "gmpy2"

    def rat(p: Union[int, str, Fraction, object] = 0, q: int = 1):
        """Build an exact rational from an int, string "p/q", Fraction or rational."""
        if isinstance(p, str):
            return _mpq(p)
        return _mpq(p, q)

except ImportError:  # pragma: no cover - exercised only without gmpy2
    BACKEND = "fractions"

    def rat(p: Union[int, str, Fraction, object] = 0, q: int = 1):
        """Build an exact rational from an int, string "p/q", Fraction or rational."""
        if isinstance(p, str):
            return Fraction(p)
        return Fraction(p) / q if q != 1 else Fraction(p)


ZERO = rat(0)
ONE = rat(1)

Rat = type(ZERO)


def parse_rational(text: Union[str, int]):
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


def as_fraction(value) -> Fraction:
    """Convert any backend rational to a ``fractions.Fraction``."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value.numerator, value.denominator)
