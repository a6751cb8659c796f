import pytest

from curvebracket import auditor
from curvebracket.auditor import (
    ANTI_PRESERVING,
    PRESERVING,
    VIOLATING,
    Certificate,
    ExcludedSurfaceError,
    SurfaceMap,
    apply_map,
    apply_map_element,
    audit_bracket,
    audit_intersection,
    enumerate_classes,
    fill_check,
    parse_map_file,
)
from curvebracket.goldman import BracketElement, bracket_classes
from curvebracket.linking import linked_pairs
from curvebracket.surface import ParseError
from curvebracket.words import parse_word, primitive_root

from conftest import cls


def W(text):
    return parse_word(text)


@pytest.fixture
def identity_to_pants(torus, pants):
    return SurfaceMap(torus, pants, (W("a"), W("b")), expect_equivalence=True)


@pytest.fixture
def twist_ab(torus):
    return SurfaceMap(torus, torus, (W("ab"), W("b")))


@pytest.fixture
def twist_ba(torus):
    return SurfaceMap(torus, torus, (W("a"), W("ba")))


@pytest.fixture
def swap(torus):
    return SurfaceMap(torus, torus, (W("b"), W("a")))


@pytest.fixture
def joint_inverse(torus):
    return SurfaceMap(torus, torus, (W("A"), W("B")))


def test_apply_map_examples(torus):
    ident = SurfaceMap(torus, torus, (W("a"), W("b")))
    assert apply_map(ident, cls("aBab")) == cls("aBab")
    m = SurfaceMap(torus, torus, (W("ab"), W("b")))
    assert apply_map(m, cls("a")) == cls("ab")
    assert apply_map(m, cls("aB")) == cls("a")
    elem = BracketElement.of(cls("a"), 2) + BracketElement.of(cls("aB"), 1)
    image = apply_map_element(m, elem)
    assert image.coefficient(cls("ab")) == 2
    assert image.coefficient(cls("a")) == 1


def test_apply_map_collects_colliding_terms(torus):
    collapse = SurfaceMap(torus, torus, (W("a"), W("a")))
    elem = BracketElement.of(cls("a"), 1) + BracketElement.of(cls("b"), 1)
    assert apply_map_element(collapse, elem) == BracketElement.of(cls("a"), 2)


def test_map_validation(torus, pants):
    with pytest.raises(ValueError):
        SurfaceMap(torus, pants, (W("a"),))
    with pytest.raises(ValueError):
        SurfaceMap(torus, pants, (W("c"), W("b")))


def test_flagship_counterexample_bracket(identity_to_pants):
    report = audit_bracket(identity_to_pants, 2)
    assert report.verdict == VIOLATING
    cert = report.certificates[0]
    assert (cert.x, cert.y) == (cls("a"), cls("b"))
    assert cert.pushed == BracketElement.of(cls("ab"))
    assert cert.direct.is_zero


def test_flagship_counterexample_intersection(identity_to_pants):
    report = audit_intersection(identity_to_pants, 2, "zero_pattern")
    assert report.verdict == VIOLATING
    cert = report.certificates[0]
    assert (cert.x, cert.y) == (cls("a"), cls("b"))
    assert (cert.pushed, cert.direct) == (1, 0)


def test_excluded_target_rejected(torus, annulus):
    m = SurfaceMap(torus, annulus, (W("a"), W("a")))
    with pytest.raises(ExcludedSurfaceError):
        audit_bracket(m, 2)
    with pytest.raises(ExcludedSurfaceError):
        audit_intersection(m, 2)


def test_twists_preserve(twist_ab, twist_ba):
    for m in (twist_ab, twist_ba):
        assert audit_bracket(m, 4).verdict == PRESERVING
        assert audit_intersection(m, 4, "exact").verdict == PRESERVING


def test_swap_anti_preserves(swap):
    assert audit_bracket(swap, 4).verdict == ANTI_PRESERVING
    assert audit_intersection(swap, 4, "zero_pattern").verdict == PRESERVING


def test_homeomorphism_soundness_corpus(twist_ab, twist_ba, swap, joint_inverse):
    for m in (twist_ab, twist_ba, swap, joint_inverse):
        verdict = audit_bracket(m, 4).verdict
        assert verdict in (PRESERVING, ANTI_PRESERVING)


def test_bracket_preserving_implies_zero_pattern(twist_ab, twist_ba, joint_inverse, torus):
    ident = SurfaceMap(torus, torus, (W("a"), W("b")))
    for m in (twist_ab, twist_ba, joint_inverse, ident):
        if audit_bracket(m, 3).verdict == PRESERVING:
            assert audit_intersection(m, 3, "zero_pattern").verdict == PRESERVING


def test_violating_is_monotone_in_bound(identity_to_pants):
    for bound in (2, 3):
        assert audit_bracket(identity_to_pants, bound).verdict == VIOLATING
        assert (
            audit_intersection(identity_to_pants, bound, "zero_pattern").verdict
            == VIOLATING
        )


def test_identity_map_preserves_everything(torus, pants):
    for s in (torus, pants):
        ident = SurfaceMap(s, s, tuple(W(chr(ord("a") + k)) for k in range(s.rank)))
        assert audit_bracket(ident, 3).verdict == PRESERVING
        for mode in ("zero_pattern", "exact"):
            assert audit_intersection(ident, 3, mode).verdict == PRESERVING


def test_bracket_verdict_branches(monkeypatch, identity_to_pants):
    # Source and target differ, so a stand-in bracket can give each side
    # of each pair a chosen value; the identity map leaves both as they
    # are.  No real map is known to reach the two-witness branch.
    m = identity_to_pants
    classes = enumerate_classes(m.source, 2)
    pairs = [(x, y) for i, x in enumerate(classes) for y in classes[i:]]
    zero, e = BracketElement.zero(), BracketElement.of(cls("ab"))
    kept, flipped, neither = (e, e), (e, -e), (e, e + e)

    def audit(sides):
        values = dict(zip(pairs, sides))
        monkeypatch.setattr(
            auditor,
            "bracket_classes",
            lambda s, x, y: values[x, y][0 if s == m.source else 1],
        )
        report = audit_bracket(m, 2)
        assert report.pairs_checked == len(pairs) == 78
        return report.verdict, report.certificates

    def cert(k, side):
        return Certificate(*pairs[k], *side)

    assert audit([(zero, zero)] * 78) == (PRESERVING, ())
    assert audit([(zero, zero)] + [kept] * 77) == (PRESERVING, ())
    assert audit([(zero, zero)] + [flipped] * 77) == (ANTI_PRESERVING, ())
    sides = [kept] * 3 + [neither] * 75
    assert audit(sides) == (VIOLATING, tuple(cert(k, neither) for k in range(3, 13)))
    sides = [(zero, zero), kept, kept, flipped, kept, flipped] + [(zero, zero)] * 72
    assert audit(sides) == (VIOLATING, (cert(3, flipped), cert(1, kept)))


def test_intersection_verdict_branches(monkeypatch, identity_to_pants):
    # Stand-ins choose, per pair, whether it is skipped and the linked-pair
    # count on each side; the identity map leaves both classes as they are.
    m = identity_to_pants
    classes = enumerate_classes(m.source, 2)
    pairs = [(x, y) for i, x in enumerate(classes) for y in classes[i:]]
    skip = None

    def audit(sides, mode="exact"):
        values = dict(zip(pairs, sides))
        monkeypatch.setattr(
            auditor,
            "unguaranteed_reason",
            lambda x, y: "stand-in" if values[x, y] is skip else None,
        )
        monkeypatch.setattr(
            auditor,
            "linked_pairs",
            lambda s, x, y: ((0, 0, 1),) * values[x, y][0 if s == m.source else 1],
        )
        report = audit_intersection(m, 2, mode)
        assert report.pairs_checked + report.pairs_skipped == len(pairs) == 78
        return report.verdict, report.certificates, report.pairs_checked

    def cert(k, side):
        return Certificate(*pairs[k], *side)

    assert audit([skip] * 78) == (PRESERVING, (), 0)
    assert audit([(0, 0), (1, 1), (2, 2)] * 26) == (PRESERVING, (), 78)
    assert audit([(0, 0), (1, 2), skip] * 26, "zero_pattern") == (PRESERVING, (), 52)
    # a count has no sign: the failing pairs are certificates, the first
    # ten in pair order, and no sweep reads as anti-preserving
    sides = [(1, 1), skip, (1, 1)] + [(2, 1), skip] * 37 + [(0, 0)]
    failing = tuple(cert(k, (2, 1)) for k in range(3, 23, 2))
    assert audit(sides) == (VIOLATING, failing, 40)
    assert audit([(1, 0)] * 78, "zero_pattern") == (
        VIOLATING,
        tuple(cert(k, (1, 0)) for k in range(10)),
        78,
    )
    assert audit([(0, 1)] + [skip] * 77, "zero_pattern") == (VIOLATING, (cert(0, (0, 1)),), 1)


def test_certificates_reverify(identity_to_pants):
    m = identity_to_pants
    report = audit_bracket(m, 2)
    for cert in report.certificates:
        pushed = apply_map_element(m, bracket_classes(m.source, cert.x, cert.y))
        direct = bracket_classes(m.target, apply_map(m, cert.x), apply_map(m, cert.y))
        assert pushed == cert.pushed
        assert direct == cert.direct
    report = audit_intersection(m, 2, "zero_pattern")
    for cert in report.certificates:
        assert cert.pushed == len(linked_pairs(m.source, cert.x, cert.y))
        fx, fy = apply_map(m, cert.x), apply_map(m, cert.y)
        assert cert.direct == len(linked_pairs(m.target, fx, fy))


def test_random_sampling_deterministic(identity_to_pants):
    a = audit_bracket(identity_to_pants, 3, sample=(40, 9))
    b = audit_bracket(identity_to_pants, 3, sample=(40, 9))
    assert a == b
    c = audit_bracket(identity_to_pants, 3, sample=(40, 10))
    assert c.sample_description != a.sample_description


def test_enumerate_classes(torus, pants):
    assert [str(c) for c in enumerate_classes(torus, 1)] == ["a", "A", "b", "B"]
    assert [str(c) for c in enumerate_classes(torus, 1, "simple")] == ["a", "A", "b", "B"]
    nonperiph = enumerate_classes(pants, 2, "nonperipheral")
    assert {str(c) for c in nonperiph} == {"aB", "Ab"}
    for text in ("a", "b", "A", "B", "ab", "AB"):
        assert cls(text) not in nonperiph


def test_fill_checks(torus, pants):
    assert fill_check(torus, [cls("a"), cls("b")], 6).passed
    report = fill_check(torus, [cls("a")], 4)
    assert not report.passed
    root, mult = primitive_root(report.counterexample)
    assert root == cls("a") and mult >= 1
    assert linked_pairs(torus, report.counterexample, cls("a")) == ()
    assert fill_check(pants, [cls("aB")], 6).passed


def test_fill_generator_systems(torus, pants, genus1b2):
    # the two core curves fill the punctured torus, but generator systems
    # containing only boundary-parallel circles (pants) or missing the
    # separating curve of the handle (genus 1, two boundary circles)
    # cannot fill; the counterexamples are the expected ones
    assert fill_check(torus, [cls("a"), cls("b")], 6).passed
    report = fill_check(pants, [cls("a"), cls("b")], 6)
    assert not report.passed and report.counterexample == cls("aB")
    report = fill_check(genus1b2, [cls("a"), cls("b"), cls("c")], 6)
    assert not report.passed and report.counterexample == cls("abAB")
    assert fill_check(pants, [cls("aB"), cls("a"), cls("b")], 6).passed


def test_map_file_round_trip(tmp_path, torus, pants):
    (tmp_path / "torus.srf").write_text("rank 2\norder a b A B\n")
    (tmp_path / "pants.srf").write_text("rank 2\norder a A b B\n")
    text = "source torus.srf\ntarget pants.srf\nexpect_equivalence\nmap a -> a\nmap b -> b\n"
    m = parse_map_file(text, tmp_path)
    assert m.source == torus
    assert m.target == pants
    assert m.images == (W("a"), W("b"))
    assert m.expect_equivalence


def test_map_file_errors(tmp_path):
    (tmp_path / "t.srf").write_text("rank 2\norder a b A B\n")
    with pytest.raises(Exception):
        parse_map_file("source t.srf\nmap a -> a\n", tmp_path)  # no target
    with pytest.raises(Exception):
        parse_map_file(
            "source t.srf\ntarget t.srf\nmap a -> a\n", tmp_path
        )  # missing image for b
    head = "source t.srf\ntarget t.srf\n"
    for line, column in (("map ab -> a\n", 5), ("map  aA -> a\n", 6)):
        with pytest.raises(ParseError, match="expected one letter") as info:
            parse_map_file(head + line, tmp_path)
        assert (info.value.line, info.value.column) == (3, column)
    images = "map a -> a\nmap b -> b\n"
    for line, column in (("expect_equivalence yes\n", 1), ("  expect_equivalence yes please\n", 3)):
        with pytest.raises(ParseError, match="expected 'expect_equivalence'") as info:
            parse_map_file(head + line + images, tmp_path)
        assert (info.value.line, info.value.column) == (3, column)


def test_map_file_names_the_surface_file_in_its_parse_errors(tmp_path):
    (tmp_path / "t.srf").write_text("rank 2\norder a b A B\n")
    (tmp_path / "bad.srf").write_text("rank two\n")
    text = "source t.srf\n target bad.srf\nmap a -> a\nmap b -> b\n"
    with pytest.raises(ParseError) as info:
        parse_map_file(text, tmp_path)
    assert (info.value.line, info.value.column) == (2, 2)
    assert str(info.value) == (
        "line 2, column 2: in bad.srf: line 1, column 1: expected 'rank <n>'"
    )


def test_map_file_image_rank_checked_when_map_precedes_target(tmp_path):
    (tmp_path / "torus.srf").write_text("rank 2\norder a b A B\n")
    (tmp_path / "pants.srf").write_text("rank 2\norder a A b B\n")
    text = "source torus.srf\nmap a -> abc\nmap b -> b\ntarget pants.srf\n"
    with pytest.raises(ParseError) as info:
        parse_map_file(text, tmp_path)
    assert (info.value.line, info.value.column) == (2, 10)
    assert "exceeds rank 2" in str(info.value)


def test_map_file_duplicate_lines(tmp_path):
    (tmp_path / "torus.srf").write_text("rank 2\norder a b A B\n")
    (tmp_path / "pants.srf").write_text("rank 2\norder a A b B\n")
    head = "source torus.srf\nmap a -> a\nmap b -> b\n"
    for text, where in (
        (head + "target pants.srf\ntarget torus.srf\n", (5, 1)),
        (head + "target pants.srf\n  source torus.srf\n", (5, 3)),
        (head + "map b -> ab\ntarget pants.srf\n", (4, 5)),
        (head + "expect_equivalence\ntarget pants.srf\n expect_equivalence\n", (6, 2)),
    ):
        with pytest.raises(ParseError, match="duplicate") as info:
            parse_map_file(text, tmp_path)
        assert (info.value.line, info.value.column) == where
