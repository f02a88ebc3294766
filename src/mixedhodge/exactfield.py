"""Q(i) values and the JSON readers of every document shape.

A Q(i) value a + b*i is its reduced quadruple ``(re_num, re_den, im_num,
im_den)``: a tuple of four ints, each fraction in lowest terms with a
positive denominator, so equality is that of the tuples.  It has no
arithmetic of its own: all of that runs on Gaussian-integer rows in
``linalg``.  ``gauss`` makes one from ints and ``Fraction``s, and
``quadruple_from_json`` reads one from the JSON quadruple ``[a, b, c, d]``
(at most ``MAX_ENTRY_BITS`` bits each), the one interchange format, which
``list(q)`` writes back.  JSON numbers that stand for doubles (curve
points, tolerances, family coordinates) are read by ``finite_from_json``.

Every JSON shape that a document parser accepts is decided here: the
parsers read integers (never booleans), arrays and objects with
``int_from_json``, ``array_from_json`` and ``object_from_json``, which
raise the caller's message, %-formatted with the caller's arguments only
on failure: a message built on every call slows a document-heavy run.
``quadruple_from_json`` and ``linalg.vector_from_json`` run once per
entry and once per vector, so they keep their one fused type test.
"""

from __future__ import annotations

import math
from fractions import Fraction

Quad = tuple[int, int, int, int]

ZERO: Quad = (0, 1, 0, 1)
I: Quad = (0, 1, 1, 1)


def gauss(re: Quad | int | Fraction = 0, im: int | Fraction = 0) -> Quad:
    """The reduced quadruple of re + im*i; a quadruple passes through."""
    if type(re) is tuple:
        if im:
            raise ValueError("cannot add an imaginary part to a Q(i) value")
        return re
    for x in (re, im):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
    re, im = Fraction(re), Fraction(im)
    return re.numerator, re.denominator, im.numerator, im.denominator


def fraction_json(x: Fraction) -> int | list[int]:
    """A rational for JSON reports: an int when integral, else [num, den]."""
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


# row reduction slows steeply with the size of the entries; seeded random
# structures of dimension up to 8 write integers of at most 63 bits
MAX_ENTRY_BITS = 128


def quadruple_from_json(data: object) -> Quad:
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


def int_from_json(x: object, message: str, *args, low: int | None = None) -> int:
    """A JSON integer (not a boolean), at least ``low`` if given."""
    if type(x) is not int or (low is not None and x < low):
        raise ValueError(message % args)
    return x


def array_from_json(x: object, message: str, *args, length: int | None = None) -> list:
    """A JSON array, of exactly ``length`` items if given."""
    if type(x) is not list or (length is not None and len(x) != length):
        raise ValueError(message % args)
    return x


def object_from_json(
    x: object, what: str, keys: tuple = (), message: str = "", *args
) -> None:
    """Check that ``x`` is a JSON object holding ``keys``.  The errors name
    ``what`` and the first missing key, unless a fixed ``message`` is
    given."""
    if type(x) is not dict:
        raise ValueError(message % args if message else f"{what} must be an object")
    for key in keys:
        if key not in x:
            error = f"{what} missing key {key!r}"
            raise ValueError(message % args if message else error)
