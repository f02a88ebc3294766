"""Q(i) values at the boundary: what JSON, ``linalg.Matrix``, ``span`` and
``reduce_mod`` exchange.  ``GaussianRational`` is a + b*i with gcd-reduced
``Fraction`` parts (so equality is component-wise) and no arithmetic: all
of that runs on Gaussian-integer rows in ``linalg``.

The one interchange format is the JSON quadruple ``[a, b, c, d]``
(numerator and denominator of the real part, then of the imaginary part; at
most ``MAX_ENTRY_BITS`` bits each): ``to_json`` writes it and
``quadruple_from_json`` reads it, into a tuple of four ints in lowest
terms with positive denominators.  That tuple is the reduced quadruple
``span`` takes beside Q(i) values, so a document's vectors become
Gaussian-integer rows with no ``Fraction`` or ``GaussianRational`` made on
the way.  JSON numbers that stand for doubles (curve points, tolerances,
family coordinates) are read by ``finite_from_json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_RationalLike = int | Fraction


def _as_fraction(x: _RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_json(self) -> list[int]:
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]


ZERO = GaussianRational(Fraction(0), Fraction(0))
I = GaussianRational(Fraction(0), Fraction(1))


def gauss(
    re: GaussianRational | _RationalLike, im: _RationalLike = 0
) -> GaussianRational:
    """Coerce to GaussianRational; ``gauss(a, b)`` is a + b*i."""
    if isinstance(re, GaussianRational):
        if im:
            raise ValueError("cannot add an imaginary part to a GaussianRational")
        return re
    return GaussianRational(_as_fraction(re), _as_fraction(im))


def fraction_json(x: Fraction) -> int | list[int]:
    """A rational for JSON reports: an int when integral, else [num, den]."""
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


# row reduction slows steeply with the size of the entries; seeded random
# structures of dimension up to 8 write integers of at most 63 bits
MAX_ENTRY_BITS = 128


def quadruple_from_json(data: object) -> tuple[int, int, int, int]:
    """Read the JSON quadruple [re_num, re_den, im_num, im_den] as its
    reduced form: each fraction in lowest terms, with a positive
    denominator, so its parts are those of ``Fraction(re_num, re_den)``
    and ``Fraction(im_num, im_den)``.  The checks run in this order: four
    JSON integers (not booleans), each of at most ``MAX_ENTRY_BITS`` bits,
    then nonzero denominators."""
    if not (
        type(data) is list
        and len(data) == 4
        and type(data[0]) is type(data[1]) is type(data[2]) is type(data[3]) is int
    ):
        raise ValueError(f"expected four integers [a, b, c, d], got {data!r}")
    a, b, c, d = data
    bits = max(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length())
    if bits > MAX_ENTRY_BITS:
        raise ValueError(
            f"entry integer of {bits} bits exceeds the limit of {MAX_ENTRY_BITS} bits"
        )
    if not b or not d:
        raise ValueError("zero denominator in Gaussian rational")
    if b != 1:
        g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
        a, b = a // g, b // g
    if d != 1:
        g = math.gcd(c, d) if d > 0 else -math.gcd(c, d)
        c, d = c // g, d // g
    return a, b, c, d


def finite_from_json(x: object, what: str) -> float:
    """A JSON number as a finite double.  Booleans are not numbers, and
    JSON integers and floats can lie outside the double range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"malformed {what} {x!r}")
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} is outside the double range")
    return value
