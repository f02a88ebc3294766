from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    deligne_pieces,
    filtered_spaces,
    lift,
    package_modules,
    weight_two_zero_mhs,
)
from mixedhodge import linalg
from mixedhodge.exactfield import I, gauss
from mixedhodge.filtration import filtered_space, graded_dims, shift, trivial
from mixedhodge.invariants import alpha
from mixedhodge.linalg import (
    conj_subspace,
    full_space,
    intersect,
    span,
    subspace_sum,
    zero_subspace,
)
from mixedhodge.mhs import (
    MixedHodgeStructure,
    assemble_extension,
    conj_filtration,
    deligne_splitting,
    direct_sum_mhs,
    dual_mhs,
    is_r_split,
    parse_json,
    tate,
    tate_twist,
    tensor_mhs,
    validate,
)
from mixedhodge.multifilt import (
    _flag_coordinates,
    _trigraded_items,
    hodge_numbers,
    trigraded_dims,
)
from mixedhodge.sampling import random_extension, random_mhs

LINE_PARAMS = (gauss(0), gauss(1), I, gauss(1, 1))


def test_validate_accepts_the_line_family():
    for lmb in LINE_PARAMS:
        m = weight_two_zero_mhs(lmb)
        assert hodge_numbers(m.triple()) == {(1, 1): 1, (0, 0): 1}


def test_fbar_is_derived_not_stored():
    m = weight_two_zero_mhs(I)
    assert m.fbar.at(1) == span([(gauss(0, -1), gauss(1))], 2)
    assert "fbar" not in m.to_json()
    assert set(m.to_json()) == {"ambient_dim", "W", "F"}


def test_validate_rejects_non_real_weight_level():
    w = filtered_space(
        2, {-1: span([(gauss(0, 1), gauss(1))], 2), 1: zero_subspace(2)}
    )
    f = shift(trivial(2), 1)
    with pytest.raises(ValueError, match="weight level -1"):
        validate(w, f)
    # a structure built without validate cannot hold a non-real W either
    with pytest.raises(ValueError, match="^weight level -1 is not conjugation stable$"):
        MixedHodgeStructure(2, w, f)
    # a dimension mismatch is reported before the weight levels are read
    with pytest.raises(ValueError, match="different dimensions"):
        validate(w, shift(trivial(3), 1))


def test_validate_rejects_non_opposed():
    # everything in weight 0, but F puts a full type (1,1) class there
    with pytest.raises(ValueError, match=r"\(0, 1, 1\)"):
        validate(trivial(1), shift(trivial(1), 1))


def test_deligne_splitting_fixed_values():
    m = weight_two_zero_mhs(I)
    pieces = deligne_splitting(m)
    assert pieces[(1, 1)] == span([(I, gauss(1))], 2)
    assert pieces[(0, 0)] == span([[1, 0]], 2)
    m1 = weight_two_zero_mhs(gauss(1))
    assert deligne_splitting(m1)[(1, 1)] == span([[1, 1]], 2)


def test_deligne_splitting_decomposes_weight_and_hodge():
    for lmb in LINE_PARAMS:
        m = weight_two_zero_mhs(lmb)
        pieces = deligne_splitting(m)
        h = hodge_numbers(m.triple())
        assert {pq: v.dim for pq, v in pieces.items()} == h
        # weight levels are sums of pieces with p + q <= m
        for mm in (-1, 0, 1, 2, 3):
            acc = zero_subspace(2)
            for (p, q), v in pieces.items():
                if p + q <= mm:
                    acc = subspace_sum(acc, v)
            assert acc == m.weight_at(mm)
        # Hodge levels are sums of pieces with first index >= p
        for p in (0, 1, 2):
            acc = zero_subspace(2)
            for (pp, _), v in pieces.items():
                if pp >= p:
                    acc = subspace_sum(acc, v)
            assert acc == m.F.at(p)


def test_deligne_pieces_match_the_formula_at_full_size():
    # whole pieces, against the intersect/subspace_sum route of conftest
    rng = random.Random("deligne pieces")
    structures = []
    for k in range(30):
        m = random_mhs(random.Random(k), max_dim=8)
        structures += [m, tate_twist(m, 1), tate_twist(m, -1), dual_mhs(m)]
        if m.ambient_dim <= 4:
            structures.append(direct_sum_mhs(m, dual_mhs(m)))
    structures += [random_extension(rng)[3] for _ in range(20)]
    structures += [
        tensor_mhs(random_mhs(rng, 3), random_mhs(rng, 3)) for _ in range(6)
    ]
    assert max(m.ambient_dim for m in structures) == 8
    assert any(not is_r_split(m) for m in structures)
    for m in structures:
        assert deligne_splitting(m) == deligne_pieces(m)


def test_fbar_echelon_is_the_conjugate_of_f_echelon():
    # the fact the Deligne splitting rests on: a conjugation-stable W has
    # real adapted coordinates, so the trigraded table's Fbar rows are its
    # F rows conjugated
    for k in range(40):
        m = random_mhs(random.Random(k), max_dim=8)
        w = m.W.values()
        coords = _flag_coordinates(w)
        assert all(b == 0 for row in coords for _, b in row)
        rows = _trigraded_items(w, m.F.values())[0]
        conj = tuple(tuple((a, -b) for a, b in r) for r in rows)
        assert _trigraded_items(w, conj_filtration(m.F).values())[0] == conj


def test_deligne_splitting_reuses_the_trigraded_rows(monkeypatch):
    # validate fills the trigraded table's F entry; the splitting reads its
    # rows and runs one Zassenhaus pass per Hodge cell.  Every other
    # _echelon call is row_space canonicalizing a piece
    rng = random.Random("fresh draw")
    m = random_mhs(rng, 8)
    while m.ambient_dim != 8:
        m = random_mhs(rng, 8)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every name, in every module, bound to either routine
    for fn in (linalg._echelon, linalg._canonical):
        for mod in package_modules():
            for name, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, name, counted(fn.__name__, fn))
    misses = _trigraded_items.cache_info().misses
    assert "_deligne" not in vars(m)  # not computed yet
    pieces = deligne_splitting(m)
    assert _trigraded_items.cache_info().misses == misses
    cells = hodge_numbers(m.triple())
    assert set(pieces) == set(cells)
    assert calls["_echelon"] - calls["_canonical"] == len(cells)


def test_deligne_splitting_runs_no_intersections_or_sums(monkeypatch):
    rng = random.Random("fresh draw")
    m = random_mhs(rng, 8)
    while m.ambient_dim != 8:
        m = random_mhs(rng, 8)

    def refuse(*args):
        raise AssertionError("the Deligne splitting met or joined two subspaces")

    # every name, in every module, bound to one of the two operations
    for mod in package_modules():
        for name, obj in list(vars(mod).items()):
            if obj is intersect or obj is subspace_sum:
                monkeypatch.setattr(mod, name, refuse)
    assert "_deligne" not in vars(m)  # not computed yet
    assert sum(v.dim for v in deligne_splitting(m).values()) == 8


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(filtered_spaces(n, real=True), filtered_spaces(n))
))
def test_trigraded_dims_are_symmetric_for_any_hodge_filtration(pair):
    # validate checks no Hodge symmetry: with W real and G = Fbar,
    # conjugation maps F^p ∩ Fbar^q on gr_W^r onto Fbar^p ∩ F^q
    w, f = pair
    delta = trigraded_dims(MixedHodgeStructure(w.ambient_dim, w, f).triple())
    assert all(delta.get((r, q, p), 0) == d for (r, p, q), d in delta.items())


def test_conjugation_symmetry_mod_lower_weight():
    for lmb in LINE_PARAMS:
        m = weight_two_zero_mhs(lmb)
        pieces = deligne_splitting(m)
        for (p, q), v in pieces.items():
            target = subspace_sum(
                pieces.get((q, p), zero_subspace(2)), m.weight_at(p + q - 2)
            )
            assert conj_subspace(v) <= target


def test_r_split_iff_real_parameter():
    assert is_r_split(weight_two_zero_mhs(gauss(0)))
    assert is_r_split(weight_two_zero_mhs(gauss(1)))
    assert not is_r_split(weight_two_zero_mhs(I))
    assert not is_r_split(weight_two_zero_mhs(gauss(1, 1)))


def test_r_split_agrees_with_alpha_on_the_family():
    for lmb in LINE_PARAMS:
        m = weight_two_zero_mhs(lmb)
        assert is_r_split(m) == (alpha(m.triple()) == 0)


def test_tate_structures():
    for k in (-2, 0, 3):
        t = tate(k)
        assert t.ambient_dim == 1
        assert hodge_numbers(t.triple()) == {(-k, -k): 1}
        assert graded_dims(t.W) == {2 * k: 1}
        assert alpha(t.triple()) == 0
        assert is_r_split(t)


def test_tate_twist_shifts_types():
    m = weight_two_zero_mhs(I)
    tw = tate_twist(m, 1)
    assert hodge_numbers(tw.triple()) == {(2, 2): 1, (1, 1): 1}
    assert alpha(tw.triple()) == alpha(m.triple())
    assert tate_twist(tate(0), 1).W == tate(-1).W
    assert tate_twist(tate(0), 1).F == tate(-1).F


def test_dual_mhs():
    for k in (-1, 0, 2):
        d = dual_mhs(tate(k))
        assert hodge_numbers(d.triple()) == {(k, k): 1}
    m = weight_two_zero_mhs(I)
    dm = dual_mhs(m)
    assert hodge_numbers(dm.triple()) == {(-1, -1): 1, (0, 0): 1}
    assert alpha(dm.triple()) == alpha(m.triple())


def test_direct_sum_mhs_adds_hodge_numbers():
    a = tate(0)
    b = tate(-1)
    s = direct_sum_mhs(a, b)
    assert hodge_numbers(s.triple()) == {(0, 0): 1, (1, 1): 1}
    assert alpha(s.triple()) == 0


def test_tensor_mhs_convolves_types():
    m = weight_two_zero_mhs(I)
    tw = tensor_mhs(m, tate(-1))
    assert hodge_numbers(tw.triple()) == {(2, 2): 1, (1, 1): 1}
    both = tensor_mhs(tate(1), tate(-2))
    assert hodge_numbers(both.triple()) == {(1, 1): 1}


def test_assemble_extension_reproduces_the_line_family():
    a = tate(0)
    b = tate(-1)
    for lmb in LINE_PARAMS:
        h = assemble_extension(a, b, lift([[lmb]]))
        ref = weight_two_zero_mhs(lmb)
        assert h.W == ref.W
        assert h.F == ref.F
    assert alpha(assemble_extension(a, b, lift([[I]])).triple()) == 1
    assert alpha(assemble_extension(a, b, lift([[0]])).triple()) == 0


def test_assemble_extension_zero_lift_is_direct_sum():
    a = weight_two_zero_mhs(I)
    b = tate(-2)
    zero_lift = lift([[0], [0]])
    h = assemble_extension(a, b, zero_lift)
    assert alpha(h.triple()) == alpha(a.triple())
    assert hodge_numbers(h.triple()) == {(1, 1): 1, (0, 0): 1, (2, 2): 1}


def test_assemble_extension_shape_check():
    with pytest.raises(ValueError, match="lift"):
        assemble_extension(tate(0), tate(-1), lift([[1], [0]]))
    with pytest.raises(ValueError, match="^lift denominator must be a positive integer$"):
        assemble_extension(tate(0), tate(-1), ((((1, 0),),), 0))


def test_json_round_trip():
    m = weight_two_zero_mhs(I)
    blob = m.to_json()
    m2 = validate(*parse_json(blob))
    assert m2 == m
    assert m2.fbar == m.fbar


def test_parsed_document_validates():
    w = filtered_space(
        2, {-1: span([(gauss(0, 1), gauss(1))], 2), 1: zero_subspace(2)}
    )
    blob = {
        "ambient_dim": 2,
        "W": w.to_json(),
        "F": shift(trivial(2), 1).to_json(),
    }
    # the shape parse alone accepts it: validation is a separate step
    assert parse_json(blob) == (w, shift(trivial(2), 1))
    with pytest.raises(ValueError, match="conjugation"):
        validate(*parse_json(blob))
    with pytest.raises(ValueError, match="missing key"):
        parse_json({"ambient_dim": 1})


def test_weight_lookup_convention():
    m = weight_two_zero_mhs(gauss(0))
    assert m.weight_at(2) == full_space(2)
    assert m.weight_at(1) == span([[1, 0]], 2)
    assert m.weight_at(0) == span([[1, 0]], 2)
    assert m.weight_at(-1) == zero_subspace(2)
