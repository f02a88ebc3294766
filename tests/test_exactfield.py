from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import gaussians
from mixedhodge.exactfield import (
    I,
    MAX_ENTRY_BITS,
    ZERO,
    gauss,
    quadruple_from_json,
)


def test_construction_and_coercion():
    x = gauss(Fraction(3, 2), Fraction(-1, 3))
    assert x == (3, 2, -1, 3)
    assert gauss(5) == (5, 1, 0, 1)
    assert gauss(x) is x
    with pytest.raises(ValueError):
        gauss(x, 1)
    with pytest.raises(TypeError):
        gauss(0.5)  # floats are not exact, refuse them


def test_constants_and_real_values():
    assert gauss(3)[2:] == (0, 1)
    assert I[2:] != (0, 1)
    assert ZERO == gauss() == (0, 1, 0, 1)
    assert I == gauss(0, 1) == (0, 1, 1, 1)


nonzero = st.integers(min_value=-60, max_value=60).filter(bool)


@given(st.integers(min_value=-60, max_value=60), nonzero,
       st.integers(min_value=-60, max_value=60), nonzero)
def test_gauss_matches_the_json_reader(a, b, c, d):
    assert gauss(Fraction(a, b), Fraction(c, d)) == quadruple_from_json([a, b, c, d])


def test_json_round_trip_fixed_values():
    x = gauss(Fraction(3, 2), Fraction(-1, 3))
    assert list(x) == [3, 2, -1, 3]
    assert quadruple_from_json([3, 2, -1, 3]) == (3, 2, -1, 3)
    # lowest terms, positive denominators, zero as 0/1
    assert quadruple_from_json([-6, -4, 2, -6]) == (3, 2, -1, 3)
    assert quadruple_from_json([0, -7, 0, 5]) == (0, 1, 0, 1)
    top = 2**MAX_ENTRY_BITS - 1  # the largest integer of MAX_ENTRY_BITS bits
    assert quadruple_from_json([-top, top, top, 1]) == (-1, 1, top, 1)


@given(gaussians())
def test_json_round_trip(x):
    assert quadruple_from_json(list(x)) == x


def test_json_rejects_garbage():
    big = 2**MAX_ENTRY_BITS
    for bad in ([1, 2, 3], [1, 0, 0, 1], [1, 2, 3, "4"], "1+2i", [True, 1, 0, 1],
                [big, 1, 0, 1], [1, big, 0, 1], [0, 1, -big, 1], [1.0, 1, 0, 1]):
        with pytest.raises(ValueError):
            quadruple_from_json(bad)
