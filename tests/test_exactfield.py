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
    gauss_from_json,
    gauss_from_text,
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


def test_text_round_trip_fixed_values():
    assert gauss_from_text("3/2+1/3i") == gauss(Fraction(3, 2), Fraction(1, 3))
    assert gauss_from_text("-1/2i") == gauss(0, Fraction(-1, 2))
    assert gauss_from_text("i") == I
    assert gauss_from_text("-i") == gauss(0, -1)
    assert gauss_from_text("5") == gauss(5)
    assert gauss_from_text("0") == ZERO
    assert str(gauss(Fraction(3, 2), Fraction(1, 3))) == "3/2+1/3i"
    assert str(gauss(0, Fraction(-1, 2))) == "-1/2i"
    assert str(ZERO) == "0"
    assert str(gauss(0, -1)) == "-i"


@given(gaussians())
def test_text_round_trip(x):
    assert gauss_from_text(str(x)) == x


def test_text_rejects_garbage():
    for bad in ("", "1+2", "i+i", "1/0", "2x"):
        with pytest.raises(ValueError):
            gauss_from_text(bad)


def test_json_round_trip_fixed_values():
    x = gauss(Fraction(3, 2), Fraction(-1, 3))
    assert x.to_json() == [3, 2, -1, 3]
    assert gauss_from_json([3, 2, -1, 3]) == x
    assert gauss_from_json([0, 1, 0, 1]) == ZERO
    top = 2**MAX_ENTRY_BITS - 1  # the largest integer of MAX_ENTRY_BITS bits
    assert gauss_from_json([-top, top, top, 1]) == gauss(-1, top)


@given(gaussians())
def test_json_round_trip(x):
    assert gauss_from_json(x.to_json()) == x


def test_json_rejects_garbage():
    big = 2**MAX_ENTRY_BITS
    for bad in ([1, 2, 3], [1, 0, 0, 1], [1, 2, 3, "4"], "1+2i", [True, 1, 0, 1],
                [big, 1, 0, 1], [1, big, 0, 1], [0, 1, -big, 1]):
        with pytest.raises(ValueError):
            gauss_from_json(bad)
