import pytest

from curvebracket.surface import (
    ParseError,
    SurfaceSymbol,
    boundary_cycles,
    classify,
    is_excluded_surface,
    is_peripheral,
    parse_surface,
)
from curvebracket.words import TrivialClassError, class_power, inverse, parse_word

from conftest import cls


def test_boundary_cycles_torus(torus):
    cycles = boundary_cycles(torus)
    assert len(cycles) == 1
    # the traced word equals abAB up to the global inversion of the convention
    assert cycles[0] in (cls("abAB"), inverse(cls("abAB")))


def test_boundary_cycles_pants(pants):
    cycles = boundary_cycles(pants)
    expect = {cls("a"), cls("b"), cls("ab")}
    got = set(cycles)
    assert len(cycles) == 3
    for c in expect:
        assert c in got or inverse(c) in got


def test_boundary_cycles_annulus(annulus):
    cycles = boundary_cycles(annulus)
    assert len(cycles) == 2
    for c in cycles:
        assert c in (cls("a"), cls("A"))


def test_classify(torus, pants, annulus, genus1b2):
    assert classify(torus) == (1, 1)
    assert classify(pants) == (0, 3)
    assert classify(annulus) == (0, 2)
    assert classify(genus1b2) == (1, 2)


def test_classify_consistency(torus, pants, annulus, genus1b2):
    for s in (torus, pants, annulus, genus1b2):
        g, b = classify(s)
        assert 2 * g + b == s.rank + 1
        assert sum(len(c) for c in boundary_cycles(s)) == 2 * s.rank


def test_classify_rotation_invariant(torus):
    order = torus.germ_order
    for i in range(len(order)):
        rotated = SurfaceSymbol(torus.rank, order[i:] + order[:i])
        assert classify(rotated) == classify(torus)


def test_is_excluded_surface(torus, pants, annulus):
    assert is_excluded_surface(annulus)
    assert not is_excluded_surface(torus)
    assert not is_excluded_surface(pants)


def test_is_peripheral(torus, pants):
    assert is_peripheral(torus, cls("abAB"))
    assert not is_peripheral(torus, cls("a"))
    assert is_peripheral(pants, cls("a"))
    assert is_peripheral(pants, cls("AB"))
    assert not is_peripheral(pants, cls("aB"))
    with pytest.raises(TrivialClassError):
        is_peripheral(torus, cls(""))


def test_boundary_cycles_are_peripheral(torus, pants, genus1b2):
    for s in (torus, pants, genus1b2):
        for c in boundary_cycles(s):
            assert is_peripheral(s, c)
            assert is_peripheral(s, inverse(c))
            assert is_peripheral(s, class_power(c, 3))


def test_symbol_validation():
    with pytest.raises(ValueError):
        SurfaceSymbol(0, ())
    with pytest.raises(ValueError):
        SurfaceSymbol(2, parse_word("abab"))
    with pytest.raises(ValueError):
        SurfaceSymbol(2, parse_word("abA"))


def test_parse_surface():
    s = parse_surface("rank 2\norder a b A B\n")
    assert s == SurfaceSymbol(2, parse_word("abAB"))
    s = parse_surface("# comment\nrank 1\norder a A\n")
    assert s.rank == 1


def test_parse_surface_errors():
    with pytest.raises(ParseError) as err:
        parse_surface("rank two\norder a A\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_surface("rank 1\norder a ? \n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_surface("rank 2\norder a b A e\n")
    assert (err.value.line, err.value.column) == (2, 13)
    with pytest.raises(ParseError):
        parse_surface("order a A\n")
    with pytest.raises(ParseError):
        parse_surface("rank 1\n")
    # each error names one line and the column of its token
    for text, where, message in [
        ("rank 2\norder ab A B\n", (2, 7), "expected one letter, got 'ab'"),
        ("rank 2\norder a b A\n", (2, 1), "germ_order must contain"),
        ("rank 2\n# germs\n  order a b A B B\n", (3, 3), "germ_order must contain"),
        ("rank 0\norder a A\n", (1, 6), "rank must be at least 1"),
        ("rank 2\norder a b A B\nrank 2\n", (3, 1), "duplicate 'rank' line"),
        ("rank 2\nrank 3\norder a b A B\n", (2, 1), "duplicate 'rank' line"),
        ("rank 1\norder a A\n order A a\n", (3, 2), "duplicate 'order' line"),
    ]:
        with pytest.raises(ParseError, match=message) as err:
            parse_surface(text)
        assert (err.value.line, err.value.column) == where
