"""Q(i) values at the boundary: what JSON, ``linalg.Matrix``, ``span`` and
``reduce_mod`` exchange.  ``GaussianRational`` is a + b*i with gcd-reduced
``Fraction`` parts (so equality is component-wise) and no arithmetic: all
of that runs on Gaussian-integer rows in ``linalg``.

The one interchange format is the JSON quadruple ``[a, b, c, d]``
(numerator and denominator of the real part, then of the imaginary part; at
most ``MAX_ENTRY_BITS`` bits each): ``to_json`` writes it and
``gauss_from_json`` reads it.  JSON numbers that stand for doubles (curve
points, tolerances, family coordinates) are read by ``finite_from_json``.
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


def gauss_from_json(data: object) -> GaussianRational:
    """Parse the JSON quadruple [re_num, re_den, im_num, im_den]."""
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 4
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in data)
    ):
        raise ValueError(f"expected four integers [a, b, c, d], got {data!r}")
    bits = max(map(abs, data)).bit_length()
    if bits > MAX_ENTRY_BITS:
        raise ValueError(
            f"entry integer of {bits} bits exceeds the limit of {MAX_ENTRY_BITS} bits"
        )
    a, b, c, d = data
    if b == 0 or d == 0:
        raise ValueError("zero denominator in Gaussian rational")
    return GaussianRational(Fraction(a, b), Fraction(c, d))


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
