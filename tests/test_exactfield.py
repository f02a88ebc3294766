from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import gaussians
from mixedhodge.exactfield import (
    I,
    MAX_ENTRY_BITS,
    ZERO,
    GaussianRational,
    gauss,
    quadruple_from_json,
)


def test_construction_and_coercion():
    x = gauss(Fraction(3, 2), Fraction(-1, 3))
    assert x.re == Fraction(3, 2) and x.im == Fraction(-1, 3)
    assert gauss(5) == GaussianRational(Fraction(5), Fraction(0))
    assert gauss(x) is x
    with pytest.raises(ValueError):
        gauss(x, 1)
    with pytest.raises(TypeError):
        gauss(0.5)  # floats are not exact, refuse them


def test_is_real_and_bool():
    assert gauss(3).im == 0
    assert I.im != 0
    assert not ZERO
    assert gauss(1) and I


def test_json_round_trip_fixed_values():
    x = gauss(Fraction(3, 2), Fraction(-1, 3))
    assert x.to_json() == [3, 2, -1, 3]
    assert quadruple_from_json([3, 2, -1, 3]) == (3, 2, -1, 3)
    # lowest terms, positive denominators, zero as 0/1
    assert quadruple_from_json([-6, -4, 2, -6]) == (3, 2, -1, 3)
    assert quadruple_from_json([0, -7, 0, 5]) == (0, 1, 0, 1)
    top = 2**MAX_ENTRY_BITS - 1  # the largest integer of MAX_ENTRY_BITS bits
    assert quadruple_from_json([-top, top, top, 1]) == (-1, 1, top, 1)


@given(gaussians())
def test_json_round_trip(x):
    assert quadruple_from_json(x.to_json()) == tuple(x.to_json())


def test_json_rejects_garbage():
    big = 2**MAX_ENTRY_BITS
    for bad in ([1, 2, 3], [1, 0, 0, 1], [1, 2, 3, "4"], "1+2i", [True, 1, 0, 1],
                [big, 1, 0, 1], [1, big, 0, 1], [0, 1, -big, 1], [1.0, 1, 0, 1]):
        with pytest.raises(ValueError):
            quadruple_from_json(bad)
