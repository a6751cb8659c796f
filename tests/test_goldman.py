import multiprocessing
import random

import pytest

from curvebracket import goldman
from curvebracket.goldman import (
    BracketElement,
    bracket,
    bracket_classes,
    is_simple,
    parse_element,
    scc_criterion_audit,
)
from curvebracket.linking import linked_pairs, self_intersection
from curvebracket.words import (
    TrivialClassError,
    canonical_cyclic,
    class_power,
    enumerate_cyclic_classes,
    inverse_word,
    primitive_root,
)

from conftest import cls


def rand_class(rng, rank, max_len):
    while True:
        w = []
        for _ in range(rng.randint(1, max_len)):
            choices = [l for l in range(-rank, rank + 1) if l and (not w or l != -w[-1])]
            w.append(rng.choice(choices))
        c = canonical_cyclic(tuple(w))
        if not c.is_trivial:
            return c


def test_bracket_element_algebra():
    x, y = cls("ab"), cls("aB")
    e = BracketElement.of(x, 2) + BracketElement.of(y, -1)
    assert e.coefficient(x) == 2
    assert e.coefficient(y) == -1
    assert (e - e).is_zero
    assert (e + (-e)).is_zero
    assert e.scale(0).is_zero
    assert str(BracketElement.zero()) == "0"


def test_element_text_round_trip():
    e = parse_element("2*abAB + -1*ab")
    assert e.coefficient(cls("abAB")) == 2
    assert e.coefficient(cls("ab")) == -1
    assert parse_element(str(e)) == e
    assert parse_element("0").is_zero
    assert parse_element("1*ba") == BracketElement.of(cls("ab"))


def test_calibration(torus):
    assert bracket_classes(torus, cls("a"), cls("b")) == BracketElement.of(cls("ab"))


def test_bracket_with_self_and_trivial(torus, pants):
    for s in (torus, pants):
        for text in ("a", "ab", "aab", "aabb"):
            assert bracket_classes(s, cls(text), cls(text)).is_zero
    assert bracket_classes(torus, cls(""), cls("ab")).is_zero
    assert bracket_classes(pants, cls("a"), cls("b")).is_zero


def test_bilinearity(torus):
    a, b = cls("a"), cls("b")
    double = bracket(torus, BracketElement.of(a), BracketElement.of(b, 2))
    assert double == bracket_classes(torus, a, b).scale(2)
    assert bracket(torus, BracketElement.zero(), BracketElement.of(b)).is_zero
    mixed = BracketElement.of(a) + BracketElement.of(b)
    assert bracket(torus, mixed, mixed).is_zero


def test_well_definedness(torus):
    rng = random.Random(11)
    for _ in range(20):
        x, y = rand_class(rng, 2, 6), rand_class(rng, 2, 6)
        u = tuple(rng.choice([1, -1, 2, -2]) for _ in range(3))
        x2 = canonical_cyclic(u + x.letters + inverse_word(u))
        i = rng.randrange(len(y))
        y2 = canonical_cyclic(y.letters[i:] + y.letters[:i])
        assert bracket_classes(torus, x2, y2) == bracket_classes(torus, x, y)


def test_power_homogeneity(torus):
    a, b = cls("a"), cls("b")
    assert bracket_classes(torus, class_power(a, 2), b) == BracketElement.of(
        cls("aab"), 2
    )
    expanded = bracket_classes(torus, class_power(a, 2), class_power(b, 2))
    assert expanded == BracketElement.of(cls("aabb"), 4)


def test_skew_symmetry_random(torus, pants, genus1b2):
    rng = random.Random(23)
    for s in (torus, pants, genus1b2):
        for _ in range(170):
            x, y = rand_class(rng, s.rank, 8), rand_class(rng, s.rank, 8)
            total = bracket_classes(s, x, y) + bracket_classes(s, y, x)
            assert total.is_zero, (s, x, y)


def test_jacobi_random(torus, pants, genus1b2):
    rng = random.Random(29)
    for s in (torus, pants, genus1b2):
        for _ in range(67):
            x, y, z = (rand_class(rng, s.rank, 6) for _ in range(3))
            total = (
                bracket(s, BracketElement.of(x), bracket_classes(s, y, z))
                + bracket(s, BracketElement.of(y), bracket_classes(s, z, x))
                + bracket(s, BracketElement.of(z), bracket_classes(s, x, y))
            )
            assert total.is_zero, (s, x, y, z)


def test_is_simple(torus, pants, genus1b2):
    assert is_simple(torus, cls("a"))
    assert is_simple(torus, cls("ab"))
    assert is_simple(torus, cls("aab"))
    assert not is_simple(torus, cls("aabb"))
    assert not is_simple(torus, cls("aa"))
    assert is_simple(pants, cls("ab"))
    assert not is_simple(pants, cls("aB"))
    with pytest.raises(TrivialClassError):
        is_simple(torus, cls(""))
    for s in (torus, pants, genus1b2):
        for x in enumerate_cyclic_classes(s.rank, 5):
            primitive = primitive_root(x)[1] == 1
            assert is_simple(s, x) == (primitive and self_intersection(s, x) == 0), x


def test_scc_criterion_audit(torus, pants, monkeypatch):
    for s in (torus, pants):
        report = scc_criterion_audit(s, 3)
        assert report.passed
        assert report.simple_classes > 0
        assert report.violation is None
    tiny = scc_criterion_audit(torus, 1)
    assert tiny.passed
    # a bracket forced to vanish on a linked pair: the sweep stops there
    # and counts the pairs up to it in (x, y) order, for any worker count;
    # pool workers see the patch only when they are forked
    original = goldman.bracket_classes

    def broken(s, x, y):
        if (x, y) == (cls("ab"), cls("aB")):
            return BracketElement.zero()
        return original(s, x, y)

    monkeypatch.setattr(goldman, "bracket_classes", broken)
    forked = multiprocessing.get_start_method() == "fork"
    for workers in (1, 2) if forked else (1,):
        report = scc_criterion_audit(torus, 3, workers=workers)
        assert not report.passed
        assert report.violation == (cls("ab"), cls("aB"))
        assert report.pairs_checked == 103


def test_scc_consistency_with_counts(torus):
    report = scc_criterion_audit(torus, 4)
    assert report.passed
    # spot-check the biconditional directly on a few pairs
    for x_text, y_text in [("a", "b"), ("ab", "aB"), ("a", "A"), ("ab", "ab")]:
        x, y = cls(x_text), cls(y_text)
        if not is_simple(torus, x):
            continue
        vanishing = bracket_classes(torus, x, y).is_zero
        assert vanishing == (len(linked_pairs(torus, x, y)) == 0)
