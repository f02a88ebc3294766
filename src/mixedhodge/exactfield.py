"""Exact arithmetic over Q and Q(i).

Rationals are stdlib ``fractions.Fraction`` (already gcd-reduced with a
positive denominator, so equality is component-wise).  ``GaussianRational``
is a + b*i with rational a, b; conjugation negates the imaginary part and
is a field automorphism.  Everything is immutable and hashable.

Interchange formats: text "a/b+c/di" and JSON ``[a, b, c, d]`` (numerator
and denominator of the real part, then of the imaginary part).  JSON
numbers that stand for doubles (curve points, tolerances, family
coordinates) are read by ``finite_from_json`` alone.
"""

from __future__ import annotations

import math
import re as _re
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

    def __add__(self, other: GaussianRational | _RationalLike) -> GaussianRational:
        other = gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: GaussianRational | _RationalLike) -> GaussianRational:
        return self + (-gauss(other))

    def __rsub__(self, other: GaussianRational | _RationalLike) -> GaussianRational:
        return gauss(other) + (-self)

    def __mul__(self, other: GaussianRational | _RationalLike) -> GaussianRational:
        other = gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: GaussianRational | _RationalLike) -> GaussianRational:
        return self * gauss(other).inverse()

    def __rtruediv__(self, other: GaussianRational | _RationalLike) -> GaussianRational:
        return gauss(other) * self.inverse()

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def inverse(self) -> GaussianRational:
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def conj(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def to_complex_float(self) -> complex:
        return complex(_fraction_to_float(self.re), _fraction_to_float(self.im))

    def to_json(self) -> list[int]:
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(_frac_str(self.re))
        if self.im:
            sign = "-" if self.im < 0 else ("+" if parts else "")
            mag = abs(self.im)
            body = "" if mag == 1 else _frac_str(mag)
            parts.append(f"{sign}{body}i")
        return "".join(parts)


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
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


def _fraction_to_float(x: Fraction) -> float:
    # float(Fraction) raises OverflowError past the double range; keep that
    # explicit rather than ever producing an infinity.
    try:
        return float(x)
    except OverflowError as exc:
        raise OverflowError(
            f"rational {x.numerator}/{x.denominator} exceeds double precision range"
        ) from exc


def _frac_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fraction_json(x: Fraction) -> int | list[int]:
    """A rational for JSON reports: an int when integral, else [num, den]."""
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


def gauss_from_json(data: object) -> GaussianRational:
    """Parse the JSON quadruple [re_num, re_den, im_num, im_den]."""
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 4
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in data)
    ):
        raise ValueError(f"expected four integers [a, b, c, d], got {data!r}")
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


_TERM = _re.compile(r"([+-]?[^+-]+)")


def gauss_from_text(text: str) -> GaussianRational:
    """Parse "a/b+c/di" (either part optional, bare "i" allowed)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational literal")
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_re = seen_im = False
    try:
        for term in _TERM.findall(s):
            if term.endswith("i"):
                if seen_im:
                    raise ValueError(f"two imaginary parts in {text!r}")
                seen_im = True
                body = term[:-1]
                if body in ("", "+"):
                    im_part = Fraction(1)
                elif body == "-":
                    im_part = Fraction(-1)
                else:
                    im_part = Fraction(body)
            else:
                if seen_re:
                    raise ValueError(f"two real parts in {text!r}")
                seen_re = True
                re_part = Fraction(term)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
    return GaussianRational(re_part, im_part)
