"""Seeded generator checks: validity, ranges, determinism, morphisms."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

from conftest import assert_canonical
from mixedhodge.exactfield import gauss
from mixedhodge.filtration import common_window
from mixedhodge.invariants import alpha
from mixedhodge.linalg import intersect, span, vector_from_json
from mixedhodge.mhs import (
    deligne_splitting,
    direct_sum_mhs,
    dual_mhs,
    tate_twist,
    tensor_mhs,
)
from mixedhodge.multifilt import hodge_numbers, simultaneous_splitting
from mixedhodge.sampling import (
    adapted_structure_from_diamond,
    generically_realizable,
    random_compatible_morphism,
    random_basis,
    random_extension,
    random_hodge_diamond,
    random_mhs,
    structure_from_diamond,
)

# sha256 over the sorted-key JSON of random_mhs(random.Random(k), max_dim=8)
# for k = 0..199: a change in how the sampler consumes its random stream
# changes the draws, and the tests and benchmark corpora built on them
PINNED_DRAWS = "7b9f4dfc09ca6029ae28e679ffe30567966549cc25ebbfbf5c7574ec0f95eb0f"

# sha256 over the constructions on seeded draws (see
# test_seeded_constructions_are_pinned): a change in how dual, tensor,
# direct sum, twist, extension, morphism, kernel, cokernel or splitting
# build their rows that changes a result changes this; the morphism's map
# enters in primitive form, so it is pinned up to a positive scale
PINNED_CONSTRUCTIONS = "35efcefa8880a7877c1076f10afb39d59f575f0a52c427a57dfbeec96248602b"


def stored_keys(f):
    return [k for k, _ in f.levels]


def test_same_seed_same_structure():
    a = random_mhs(random.Random(123), 8)
    b = random_mhs(random.Random(123), 8)
    assert a == b


def test_seeded_draws_are_pinned():
    digest = hashlib.sha256()
    for k in range(200):
        m = random_mhs(random.Random(k), max_dim=8)
        digest.update(json.dumps(m.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_DRAWS


def test_seeded_constructions_are_pinned():
    def lift_json(lift):
        # the lift's entries as Q(i) quadruples
        rows, den = lift
        return [[list(gauss(Fraction(x, den), Fraction(y, den))) for x, y in r]
                for r in rows]

    def primitive_json(rows):
        # a morphism's map counts only up to a positive scale: its rows
        # divided by the gcd of all their parts
        g = gcd(*(x for r in rows for e in r for x in e)) or 1
        return [[[x // g, y // g] for x, y in r] for r in rows]

    digest = hashlib.sha256()
    for k in range(48):
        rng = random.Random(f"constructions:{k}")
        a, b = random_mhs(rng, 3), random_mhs(rng, 3)
        _, _, lift, total = random_extension(rng, 2)
        mor = random_compatible_morphism(rng, total, a)
        splitting = simultaneous_splitting(a.F, a.fbar)
        out = [
            dual_mhs(a).to_json(),
            tensor_mhs(a, b).to_json(),
            direct_sum_mhs(a, b).to_json(),
            tate_twist(a, k % 5 - 2).to_json(),
            lift_json(lift),
            total.to_json(),
            primitive_json(mor.rows),
            mor.kernel().to_json(),
            mor.cokernel().to_json(),
            mor.compatible(),
            mor.is_strict(),
            sorted((p, q, v.rows) for (p, q), v in splitting.items()),
        ]
        digest.update(json.dumps(out, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_CONSTRUCTIONS


def test_sampled_levels_are_canonical():
    # both samplers and assemble_extension build their levels with
    # from_generators, which checks no nesting; conjugation for fbar hands
    # its rows to Subspace, which trusts them
    rng = random.Random("canonical levels")
    drawn = []
    for _ in range(30):
        h = random_hodge_diamond(rng, 6)
        for sampler in (structure_from_diamond, adapted_structure_from_diamond):
            m = sampler(rng, h)
            if m is not None:
                drawn.append(m)
    drawn += [random_extension(rng)[3] for _ in range(10)]
    assert len(drawn) >= 40
    for m in drawn:
        for f in (m.W, m.F, m.fbar):
            for _, level in f.levels:
                assert_canonical(level)
        for piece in deligne_splitting(m).values():
            assert_canonical(piece)


def test_random_basis_spans_full_space():
    rng = random.Random(41)
    for n in range(1, 9):
        for real in (True, False):
            rows = random_basis(rng, n, real=real)
            assert len(rows) == n
            assert all(len(r) == n for r in rows)
            assert all(max(abs(x), abs(y)) <= 9 for r in rows for x, y in r)
            if real:
                assert all(y == 0 for r in rows for _, y in r)
            assert span([[gauss(x, y) for x, y in r] for r in rows], n).is_full


def test_random_structures_valid_and_in_range():
    rng = random.Random(5)
    for _ in range(40):
        m = random_mhs(rng, 8)
        assert 1 <= m.ambient_dim <= 8
        assert all(-3 <= k <= 3 for k in stored_keys(m.W))
        assert all(-3 <= k <= 3 for k in stored_keys(m.F))
        h = hodge_numbers(m.triple())
        assert sum(h.values()) == m.ambient_dim
        assert all(h[(p, q)] == h[(q, p)] for (p, q) in h)


def test_diamond_draw_symmetric_and_sized():
    rng = random.Random(9)
    for _ in range(200):
        h = random_hodge_diamond(rng, 8)
        assert 1 <= sum(h.values()) <= 8
        assert all(h[(p, q)] == h[(q, p)] for (p, q) in h)
        assert all(-2 <= p <= 2 and -2 <= q <= 2 for (p, q) in h)
        assert all(-2 <= p + q <= 3 for (p, q) in h)


def test_generic_realizability_examples():
    # two weights, one type each: generic flags reach it
    assert generically_realizable({(1, 1): 1, (0, 0): 1})
    # weight-1 types under weight-2 types force a non-generic intersection
    assert not generically_realizable(
        {(2, 0): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1}
    )


def test_adapted_path_reaches_special_diamonds():
    h = {(2, 0): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1}
    rng = random.Random(31)
    m = adapted_structure_from_diamond(rng, h)
    assert m is not None
    assert hodge_numbers(m.triple()) == h


def test_both_paths_realise_the_drawn_diamond():
    # nothing checks at draw time that a Hodge flag's generators span: both
    # paths hand from_generators a basis by construction.  Had they
    # stopped spanning, a level would have the wrong dimension and the
    # Hodge numbers would move off the diamond
    rng = random.Random("diamond realisation")
    generic = 0
    for _ in range(150):
        h = random_hodge_diamond(rng, 8)
        m = adapted_structure_from_diamond(rng, h)
        assert m is not None
        assert hodge_numbers(m.triple()) == h
        if generically_realizable(h):
            m = structure_from_diamond(rng, h)
            if m is not None:
                assert hodge_numbers(m.triple()) == h
                generic += 1
    assert generic >= 50


def test_extensions_add_hodge_numbers():
    rng = random.Random(17)
    for _ in range(15):
        a, b, _, total = random_extension(rng)
        assert total.ambient_dim == a.ambient_dim + b.ambient_dim
        ha = hodge_numbers(a.triple())
        hb = hodge_numbers(b.triple())
        ht = hodge_numbers(total.triple())
        for key in set(ha) | set(hb) | set(ht):
            assert ht.get(key, 0) == ha.get(key, 0) + hb.get(key, 0)
        # sub/quotient contract: restricting total.F to V_a gives a.F and
        # projecting it to V_b gives b.F
        na, n = a.ambient_dim, total.ambient_dim
        v_a = span([[int(i == j) for i in range(n)] for j in range(na)], n)
        for p in common_window(a.F, b.F):
            level = total.F.at(p)
            restr = intersect(level, v_a)
            rows_a = [vector_from_json(r[:na], na) for r in restr.to_json()]
            rows_b = [vector_from_json(r[na:], n - na) for r in level.to_json()]
            assert span(rows_a, na) == a.F.at(p)
            assert span(rows_b, n - na) == b.F.at(p)


def test_random_morphisms_compatible_and_real():
    rng = random.Random(23)
    for _ in range(25):
        src = random_mhs(rng, 4)
        dst = random_mhs(rng, 4)
        mor = random_compatible_morphism(rng, src, dst)
        assert mor.compatible()
        assert all(im == 0 for row in mor.rows for _, im in row)


def test_alpha_spread_includes_split_and_nonsplit():
    rng = random.Random(11)
    values = {alpha(random_mhs(rng, 8).triple()) for _ in range(60)}
    assert 0 in values
    assert any(v > 0 for v in values)
