import pytest
from hypothesis import given, strategies as st

from curvebracket.words import (
    CyclicClass,
    TrivialClassError,
    canonical_cyclic,
    class_power,
    cyclic_reduce,
    enumerate_cyclic_classes,
    enumerate_reduced_words,
    format_word,
    inverse,
    inverse_word,
    parse_word,
    primitive_root,
    reduce,
)

from conftest import cls
from oracles import reference_enumerate_cyclic_classes


letters = st.integers(min_value=-3, max_value=3).filter(lambda l: l != 0)
words = st.lists(letters, max_size=12).map(tuple)


def test_reduce_examples():
    assert reduce(parse_word("abBa")) == parse_word("aa")
    assert reduce(()) == ()
    assert reduce(parse_word("aA")) == ()


def test_canonical_cyclic_examples():
    assert canonical_cyclic(parse_word("ba")) == cls("ab")
    assert canonical_cyclic(parse_word("abA")) == cls("b")
    assert canonical_cyclic(parse_word("ABab")) == cls("abAB")


def test_inverse_examples():
    assert inverse(cls("ab")) == canonical_cyclic(parse_word("BA"))
    assert inverse(cls("")) == cls("")
    assert inverse(cls("a")) == cls("A")


def test_primitive_root_examples():
    assert primitive_root(cls("abab")) == (cls("ab"), 2)
    assert primitive_root(cls("a")) == (cls("a"), 1)
    assert primitive_root(cls("aab")) == (cls("aab"), 1)
    with pytest.raises(TrivialClassError):
        primitive_root(cls(""))


def test_parse_format_round_trip():
    assert format_word(parse_word("aBcZ")) == "aBcZ"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("a1")
    with pytest.raises(ValueError):
        parse_word("c", rank=2)


@given(words)
def test_reduce_idempotent_and_shorter(w):
    r = reduce(w)
    assert reduce(r) == r
    assert len(r) <= len(w)


@given(words, words)
def test_canonical_cyclic_conjugation_invariant(u, w):
    conjugated = u + w + inverse_word(u)
    assert canonical_cyclic(conjugated) == canonical_cyclic(w)


@given(words)
def test_canonical_cyclic_rotation_invariant(w):
    base = cyclic_reduce(w)
    for i in range(len(base)):
        rotated = base[i:] + base[:i]
        assert canonical_cyclic(rotated) == canonical_cyclic(base)


@given(words)
def test_inverse_is_involution(w):
    x = canonical_cyclic(w)
    assert inverse(inverse(x)) == x


@given(words, st.integers(min_value=1, max_value=4))
def test_primitive_root_of_powers(w, k):
    x = canonical_cyclic(w)
    if x.is_trivial:
        return
    root, mult = primitive_root(x)
    powered = class_power(x, k)
    assert primitive_root(powered) == (root, k * mult)


def test_enumerate_reduced_words_counts():
    ws = list(enumerate_reduced_words(2, 3))
    assert ws.count(()) == 1
    assert sum(1 for w in ws if len(w) == 1) == 4
    assert sum(1 for w in ws if len(w) == 2) == 12
    assert sum(1 for w in ws if len(w) == 3) == 36
    assert all(reduce(w) == w for w in ws)


def test_enumerate_cyclic_classes_small():
    classes = enumerate_cyclic_classes(2, 1)
    assert [str(c) for c in classes] == ["a", "A", "b", "B"]
    classes2 = enumerate_cyclic_classes(2, 2)
    assert cls("ab") in classes2
    assert cls("ba") in classes2  # same object as ab
    assert len(set(classes2)) == len(classes2)
    assert classes2 == sorted(classes2, key=CyclicClass.sort_key)


def test_enumerate_cyclic_classes_matches_reference():
    for rank, max_len in ((1, 6), (2, 6), (3, 5)):
        got = enumerate_cyclic_classes(rank, max_len)
        assert got == reference_enumerate_cyclic_classes(rank, max_len)
