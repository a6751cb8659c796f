import random

import pytest

from curvebracket.linking import (
    UnguaranteedPairError,
    _linked_cells,
    intersection_number,
    linked_pairs,
    self_intersection,
    turn_sign,
)
from curvebracket.surface import SurfaceSymbol, boundary_cycles
from curvebracket.words import (
    TrivialClassError,
    canonical_cyclic,
    class_power,
    enumerate_cyclic_classes,
    inverse,
    inverse_word,
    parse_word,
)

from conftest import cls
from oracles import coprime_pairs, reference_linked_cells, slope_intersection, slope_word


def germ(text):
    (letter,) = parse_word(text)
    return letter


def test_turn_sign_examples(torus, pants):
    assert turn_sign(torus, germ("a"), germ("b"), germ("A")) == 1
    assert turn_sign(torus, germ("a"), germ("A"), germ("b")) == -1
    assert turn_sign(pants, germ("a"), germ("A"), germ("b")) == 1
    with pytest.raises(ValueError):
        turn_sign(torus, germ("a"), germ("a"), germ("b"))


def test_linked_pairs_examples(torus, pants):
    assert len(linked_pairs(torus, cls("a"), cls("b"))) == 1
    assert linked_pairs(pants, cls("a"), cls("b")) == ()
    assert linked_pairs(torus, cls("a"), cls("a")) == ()
    with pytest.raises(TrivialClassError):
        linked_pairs(torus, cls(""), cls("a"))


def test_linked_pairs_deterministic_order(torus):
    pairs = linked_pairs(torus, cls("ab"), cls("aB"))
    grid = [(i, j) for i, j, _ in pairs]
    assert grid == sorted(grid)


def test_intersection_number_examples(torus, pants):
    assert intersection_number(torus, cls("ab"), cls("aB")) == 2
    assert intersection_number(torus, cls("a"), cls("b")) == 1
    assert intersection_number(pants, cls("a"), cls("aB")) == 0


def test_intersection_number_preconditions(torus):
    with pytest.raises(UnguaranteedPairError):
        intersection_number(torus, cls("aa"), cls("b"))
    with pytest.raises(UnguaranteedPairError):
        intersection_number(torus, cls("a"), cls("a"))
    with pytest.raises(TrivialClassError):
        intersection_number(torus, cls("a"), cls(""))


def test_self_intersection_examples(torus, pants):
    assert self_intersection(torus, cls("a")) == 0
    assert self_intersection(pants, cls("aB")) == 1
    assert self_intersection(pants, cls("ab")) == 0
    with pytest.raises(UnguaranteedPairError):
        self_intersection(torus, cls("aa"))


def test_self_intersection_known_torus_values(torus):
    # the boundary class is embedded; the classic length-four words have
    # one forced self-crossing each
    assert self_intersection(torus, cls("abAB")) == 0
    assert self_intersection(torus, cls("abaB")) == 1
    assert self_intersection(torus, cls("aabb")) == 1
    assert self_intersection(torus, cls("aaBB")) == 1


def test_symmetry(torus, pants, genus1b2):
    rng = random.Random(3)
    for s in (torus, pants, genus1b2):
        classes = enumerate_cyclic_classes(s.rank, 4)
        for _ in range(40):
            x, y = rng.choice(classes), rng.choice(classes)
            assert len(linked_pairs(s, x, y)) == len(linked_pairs(s, y, x))


def test_conjugacy_invariance(torus):
    rng = random.Random(5)
    base = [parse_word(t) for t in ("ab", "aB", "aab", "abab", "aabAB")]
    for w in base:
        x = canonical_cyclic(w)
        reference = len(linked_pairs(torus, x, cls("ab"))) if x != cls("ab") else None
        for _ in range(10):
            u = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4)))
            conjugated = canonical_cyclic(u + w + inverse_word(u))
            assert conjugated == x
            if reference is not None:
                assert len(linked_pairs(torus, conjugated, cls("ab"))) == reference


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_power_bilinearity_of_count(torus, p, q):
    base_pairs = [
        (cls("a"), cls("b")),
        (cls("ab"), cls("aB")),
        (cls("a"), cls("ab")),
    ]
    for x, y in base_pairs:
        base = len(linked_pairs(torus, x, y))
        powered = len(linked_pairs(torus, class_power(x, p), class_power(y, q)))
        assert powered == p * q * base


def test_slope_words_are_simple(torus):
    for p, q in coprime_pairs(4):
        assert self_intersection(torus, slope_word(p, q)) == 0


def test_slope_law(torus):
    pairs = coprime_pairs(3)
    for p, q in pairs:
        for r, s in pairs:
            x, y = slope_word(p, q), slope_word(r, s)
            if x == y:
                continue
            assert intersection_number(torus, x, y) == slope_intersection(p, q, r, s)


def test_peripheral_nullity(torus, pants):
    for s in (torus, pants):
        cycles = boundary_cycles(s)
        for y in enumerate_cyclic_classes(s.rank, 6):
            for d in cycles:
                assert linked_pairs(s, d, y) == ()


def test_inverse_class_linking_matches_doubled_self_crossings(torus, pants):
    # two taut parallel copies of a curve, one reversed, cross twice per
    # self-crossing of the curve; simple classes are disjoint from their
    # own reversal
    for s in (torus, pants):
        for text in ("a", "ab", "aB", "aab", "aabb", "abAB"):
            x = cls(text)
            reversed_class = canonical_cyclic(inverse_word(x.letters))
            count = len(linked_pairs(s, x, reversed_class))
            assert count == 2 * self_intersection(s, x)


def random_class(rng, rank, max_len):
    while True:
        word = tuple(
            rng.choice((1, -1)) * rng.randint(1, rank)
            for _ in range(rng.randint(1, max_len))
        )
        x = canonical_cyclic(word)
        if not x.is_trivial:
            return x


def test_linked_cells_match_reference_kernel(torus, pants, genus1b2):
    # the one-walk kernel against the two-walk reference, cell for cell
    kernel = _linked_cells.__wrapped__

    def check(s, x, y):
        cells = kernel(s, x.letters, y.letters)
        assert cells == reference_linked_cells(s, x.letters, y.letters), (s, x, y)
        for i, j, sign in cells:
            assert 0 <= i < len(x) and 0 <= j < len(y) and sign in (-1, 1)
        if x == y:
            assert len(cells) % 2 == 0, (s, x)

    rng = random.Random(11)
    symbols = [torus, pants, genus1b2]
    for rank in (1, 2, 3, 4):
        for _ in range(3):
            germs = list(range(1, rank + 1)) + list(range(-rank, 0))
            rng.shuffle(germs)
            symbols.append(SurfaceSymbol(rank, tuple(germs)))
    for s in symbols:
        for _ in range(150):
            x, y = random_class(rng, s.rank, 12), random_class(rng, s.rank, 12)
            check(s, x, y)
            check(s, x, x)
            check(s, x, inverse(x))
    for s in (torus, pants, genus1b2):
        classes = enumerate_cyclic_classes(s.rank, 4)
        for x in classes:
            for y in classes:
                check(s, x, y)
