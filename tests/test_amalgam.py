import random

import pytest

from curvebracket import amalgam
from curvebracket.amalgam import (
    FACTOR_A,
    FACTOR_B,
    AmalgamPresentation,
    AmalgamWord,
    FactorElement,
    HypothesisError,
    LemmaSweepReport,
    _alternating,
    _conjugator_table,
    _cyclic_normalize_syllables,
    _factor_words,
    _instance_cyclic,
    _normalize_syllables,
    _seam,
    brute_force_conjugate_into_factor,
    c_power_of,
    check_lemma_statement_1,
    check_lemma_statement_2,
    conjugate_into_factor,
    cyclic_normalize,
    enumerate_h_words,
    is_factor_peripheral,
    lemma_sweep,
    normalize,
)
from curvebracket.cli import main
from curvebracket.words import PreconditionError, inverse_word, reduce
from oracles import (
    reference_brute_force_conjugate_into_factor,
    reference_conjugate_into_factor,
    reference_cyclic_normalize_syllables,
    reference_normalize_syllables,
)


# Factor A is free on x, y (letters 1, 2); factor B free on u, v.
# The edge subgroup maps to x on one side and u on the other.
P = AmalgamPresentation(2, 2, (1,), (1,))

X, Y = (1,), (2,)
U, V = (1,), (2,)


def A(word):
    return (FACTOR_A, word)


def B(word):
    return (FACTOR_B, word)


def W(*syllables):
    return AmalgamWord(tuple(syllables))


def test_presentation_validation():
    with pytest.raises(ValueError):
        AmalgamPresentation(2, 2, (), (1,))
    with pytest.raises(ValueError):
        AmalgamPresentation(2, 2, (1, -1), (1,))
    with pytest.raises(ValueError):
        AmalgamPresentation(1, 1, (2,), (1,))


def test_c_power_of():
    assert c_power_of(P, FACTOR_A, (1, 1)) == 2
    assert c_power_of(P, FACTOR_A, Y) is None
    assert c_power_of(P, FACTOR_A, ()) == 0
    assert c_power_of(P, FACTOR_B, (-1, -1, -1)) == -3
    longer = AmalgamPresentation(2, 2, (1, 2), (1,))
    assert c_power_of(longer, FACTOR_A, (1, 2, 1, 2)) == 2
    assert c_power_of(longer, FACTOR_A, (-2, -1, -2, -1)) == -2
    assert c_power_of(longer, FACTOR_A, (1, 2, 1)) is None
    assert c_power_of(longer, FACTOR_A, (2, 1, 2, 1)) is None


def test_normalize_examples():
    assert normalize(P, W(A(Y), B(U), B((-1,)), B(V))).syllables == (A(Y), B(V))
    assert normalize(P, W(A(X))).syllables == (A(X),)
    # middle syllable is the edge word of B, so it crosses into A and merges
    assert normalize(P, W(A(Y), B(U), A((-2,)))).syllables == (A((2, 1, -2)),)


def test_normalize_identity():
    assert normalize(P, W()).syllables == ()
    assert normalize(P, W(A(()), B(()))).syllables == ()
    assert normalize(P, W(A(Y), A((-2,)))).syllables == ()


def test_cyclic_normalize_examples():
    assert cyclic_normalize(P, W(A(Y), B(V), A((-2,)))).syllables == (B(V),)
    assert cyclic_normalize(P, W(A(Y), B(V))).syllables == (A(Y), B(V))
    four = cyclic_normalize(P, W(A(Y), B(V), A(Y), B((-2,))))
    assert len(four.syllables) == 4


def test_conjugate_into_factor():
    assert conjugate_into_factor(P, W(A(Y), B(V), A((-2,)))) == FACTOR_B
    assert conjugate_into_factor(P, W(A(Y), B(V))) is None
    assert conjugate_into_factor(P, W(A((2, 1, -2)))) == FACTOR_A
    assert conjugate_into_factor(P, W()) == FACTOR_A
    # conjugates of powers of c lie in both factors and always report A
    assert conjugate_into_factor(P, W(B(U))) == FACTOR_A
    assert conjugate_into_factor(P, W(B(U), A(Y), A((-2,)))) == FACTOR_A
    assert conjugate_into_factor(P, W(B((2, 1, -2)))) == FACTOR_A


def test_brute_force_oracle():
    assert brute_force_conjugate_into_factor(P, W(A(Y), B(V), A((-2,))), 1, 2) == FACTOR_B
    assert brute_force_conjugate_into_factor(P, W(A(Y), B(V)), 3, 2) is None
    assert brute_force_conjugate_into_factor(P, W(A((2, 1, -2))), 1, 1) == FACTOR_A
    with pytest.raises(ValueError):
        brute_force_conjugate_into_factor(P, W(A(Y)), 9, 9)


def test_is_factor_peripheral():
    assert is_factor_peripheral(P, FactorElement(FACTOR_A, ()))
    assert is_factor_peripheral(P, FactorElement(FACTOR_A, X))
    assert is_factor_peripheral(P, FactorElement(FACTOR_A, (2, 1, -2)))
    assert is_factor_peripheral(P, FactorElement(FACTOR_A, (2, 1, 1, -2)))
    assert not is_factor_peripheral(P, FactorElement(FACTOR_A, Y))
    assert not is_factor_peripheral(P, FactorElement(FACTOR_A, (1, 2)))
    square = AmalgamPresentation(2, 2, (1, 1), (1,))
    assert not is_factor_peripheral(square, FactorElement(FACTOR_A, (1,)))
    assert is_factor_peripheral(square, FactorElement(FACTOR_A, (1, 1, 1, 1)))


def test_reduced_length_is_invariant_under_respelling():
    rng = random.Random(17)
    base = [A(Y), B(V), A((1, 2)), B((-2, 1))]
    reference = len(normalize(P, W(*base)).syllables)
    for _ in range(60):
        spelled = []
        for tag, word in base:
            # split the syllable and interleave edge-word crossings
            k = rng.randint(0, len(word))
            spelled.append((tag, word[:k]))
            if rng.random() < 0.5:
                other = FACTOR_B if tag == FACTOR_A else FACTOR_A
                power = rng.choice([-2, -1, 1, 2])
                spelled.append((tag, (1,) * power if power > 0 else (-1,) * -power))
                spelled.append((other, (-1,) * power if power > 0 else (1,) * -power))
            spelled.append((tag, word[k:]))
        assert len(normalize(P, AmalgamWord(tuple(spelled))).syllables) == reference


def test_cyclic_length_is_conjugacy_invariant():
    rng = random.Random(19)
    words = [
        W(A(Y), B(V)),
        W(A(Y), B(V), A(Y), B((-2,))),
        W(A((2, 1, -2))),
        W(A((1, 2)), B((2, 2))),
    ]
    h_pool = enumerate_h_words(P, 2, 2)
    for w in words:
        reference = len(cyclic_normalize(P, w).syllables)
        for _ in range(25):
            q = rng.choice(h_pool).syllables
            back = tuple((tag, inverse_word(word)) for tag, word in reversed(q))
            conjugated = AmalgamWord(q + w.syllables + back)
            assert len(cyclic_normalize(P, conjugated).syllables) == reference


def test_mks_agreement_small():
    pool = enumerate_h_words(P, 2, 2)
    rng = random.Random(13)
    sampled = rng.sample(pool, 80)
    for w in sampled:
        quick = conjugate_into_factor(P, w)
        slow = brute_force_conjugate_into_factor(P, w, 2, 2)
        assert quick == slow


def test_lemma_statement_examples():
    y_elem = FactorElement(FACTOR_A, Y)
    v_elem = FactorElement(FACTOR_B, V)
    assert check_lemma_statement_1(P, y_elem, W(), v_elem)
    assert check_lemma_statement_1(P, y_elem, W(A(Y), B(V)), v_elem)
    non_peripheral_b = FactorElement(FACTOR_B, (2, 1, 2))
    assert check_lemma_statement_1(P, y_elem, W(B(V)), non_peripheral_b)

    assert check_lemma_statement_2(P, y_elem, W(A(Y)), y_elem)
    assert check_lemma_statement_2(P, y_elem, W(B(V)), y_elem)
    assert check_lemma_statement_2(P, y_elem, W(A(Y), B(V)), y_elem)


def test_lemma_hypotheses_rejected():
    x_elem = FactorElement(FACTOR_A, X)  # peripheral: equals the edge word
    v_elem = FactorElement(FACTOR_B, V)
    with pytest.raises(HypothesisError):
        check_lemma_statement_1(P, x_elem, W(), v_elem)
    with pytest.raises(HypothesisError):
        check_lemma_statement_1(P, FactorElement(FACTOR_A, Y), W(), FactorElement(FACTOR_B, U))
    with pytest.raises(HypothesisError):
        check_lemma_statement_2(P, FactorElement(FACTOR_A, Y), W(), FactorElement(FACTOR_A, X))


def test_proof_case_forms_reproduced():
    # h = a1 . b1 with everything non-peripheral: the cyclically reduced
    # form of a * h b h^-1 must be (a1^-1 a a1) . b1 ... (b1 b b1^-1) ...
    a, a1, b, b1 = Y, (1, 2), V, (1, 2)
    w = W(A(a), A(a1), B(b1), B(b), B(inverse_word(b1)), A(inverse_word(a1)))
    got = cyclic_normalize(P, w).syllables
    expected = (
        A(reduce(inverse_word(a1) + a + a1)),
        B(reduce(b1 + b + inverse_word(b1))),
    )
    assert got == expected

    # h = b1: the form is a . (b1 b b1^-1)
    w = W(A(a), B(b1), B(b), B(inverse_word(b1)))
    got = cyclic_normalize(P, w).syllables
    assert got == (A(a), B(reduce(b1 + b + inverse_word(b1))))

    # h = a1 . b1 with a core a' in A: (a1^-1 a a1) . b1 . a' . b1^-1
    a_prime = (2, 2)
    w = W(A(a), A(a1), B(b1), A(a_prime), B(inverse_word(b1)), A(inverse_word(a1)))
    got = cyclic_normalize(P, w).syllables
    assert got == (
        A(reduce(inverse_word(a1) + a + a1)),
        B(b1),
        A(a_prime),
        B(inverse_word(b1)),
    )


def test_lemma_sweep_small():
    report = lemma_sweep(P, max_letters=1, max_h_syllables=2, oracle_sample=60)
    assert report.passed
    assert report.oracle_agreed
    assert report.instances_1 > 0 and report.instances_2 > 0
    assert "empty" in report.case_counts


# c = a, c = ab, c = aa, and a rank-3 factor with a longer edge word
DIFFERENTIAL_PRESENTATIONS = (
    P,
    AmalgamPresentation(2, 2, (1, 2), (1,)),
    AmalgamPresentation(2, 2, (1, 1), (2,)),
    AmalgamPresentation(3, 2, (1, 2, -3), (1, 1)),
)


def test_lemma_sweep_reports_where_the_statements_differ():
    # with cA = cB = a the two statements have equally many instances;
    # here they do not, so a sweep that mixed up the two counts fails
    shapes = ("empty", "single A", "single B", "A..B", "B..A")
    expected = (
        (68, 68, (4, 16, 16, 16, 16), 59),
        (200, 400, (8, 32, 32, 64, 64), 60),
        (200, 400, (8, 32, 32, 64, 64), 60),
        (1416, 2124, (24, 144, 96, 576, 576), 60),
    )
    for p, (one, two, counts, checked) in zip(DIFFERENTIAL_PRESENTATIONS, expected):
        case_counts = dict(zip(shapes, counts))
        assert lemma_sweep(p, 1, 2, 60) == LemmaSweepReport(
            True, one, two, case_counts, checked, True
        )


def assert_matches_reference(p, syllables):
    w = AmalgamWord(tuple(syllables))
    new = normalize(p, w).syllables
    ref = reference_normalize_syllables(p, syllables)
    assert len(new) == len(ref)
    assert all(s[0] != t[0] for s, t in zip(new, new[1:]))
    assert len(new) <= 1 or all(c_power_of(p, tag, word) is None for tag, word in new)
    back = [(tag, inverse_word(word)) for tag, word in reversed(ref)]
    assert reference_normalize_syllables(p, list(new) + back) == []
    cyc = cyclic_normalize(p, w).syllables
    assert len(cyc) == len(reference_cyclic_normalize_syllables(p, syllables))
    assert conjugate_into_factor(p, w) == reference_conjugate_into_factor(p, syllables)


def _random_syllable(rng, p):
    tag = rng.choice((FACTOR_A, FACTOR_B))
    if rng.random() < 0.3:
        c = p.amalgam_word(tag)
        k = rng.choice((-2, -1, 1, 2))
        return tag, c * k if k > 0 else inverse_word(c) * -k
    rank = p.rank_a if tag == FACTOR_A else p.rank_b
    length = rng.randint(0, 3)
    return tag, tuple(rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length))


def test_normal_form_matches_reference_on_random_spellings():
    rng = random.Random(23)
    for p in DIFFERENTIAL_PRESENTATIONS:
        for _ in range(1000):
            spelled = []
            for _ in range(rng.randint(0, 7)):
                spelled.append(_random_syllable(rng, p))
                if rng.random() < 0.3:
                    # a syllable and its inverse, to make later merges cancel
                    tag, word = _random_syllable(rng, p)
                    spelled += [(tag, word), (tag, inverse_word(word))]
            if rng.random() < 0.3:
                q = [_random_syllable(rng, p) for _ in range(rng.randint(1, 3))]
                back = [(tag, inverse_word(word)) for tag, word in reversed(q)]
                spelled = q + spelled + back
            assert_matches_reference(p, spelled)


def test_normal_form_matches_reference_on_conjugates():
    targets = [A(Y), B(V), A(X), B((2, 1, -2)), A((1, 2))]
    for h in enumerate_h_words(P, 2, 2):
        q = list(h.syllables)
        back = [(tag, inverse_word(word)) for tag, word in reversed(q)]
        for target in targets:
            assert_matches_reference(P, q + [target] + back)


def _inverse_form(form):
    return [(tag, inverse_word(word)) for tag, word in reversed(form)]


def _rerun_cyclic(p, out):
    """Cyclic reduction that re-runs the whole pass on every rotation."""
    while len(out) >= 2 and out[0][0] == out[-1][0]:
        out = _normalize_syllables(p, [out[-1]] + out[:-1])
    return out


def assert_seam_exact(p, head, tail):
    full = _normalize_syllables(p, head + tail)
    assert _seam(p, head, tail) == full
    assert _cyclic_normalize_syllables(p, full) == _rerun_cyclic(p, full)


def test_seam_lone_power_of_c_moves_factor():
    # x y . y^-1 v leaves the lone edge word x, which crosses into B as u
    assert _seam(P, [A((1, 2))], [A((-2,)), B(V)]) == [B((1, 2))]
    assert _seam(P, [A(X)], [B(V), A(Y)]) == [B((1, 2)), A(Y)]


def test_seam_matches_full_pass_on_random_forms():
    rng = random.Random(29)
    for p in DIFFERENTIAL_PRESENTATIONS:

        def spell():
            return [_random_syllable(rng, p) for _ in range(rng.randint(0, 3))]

        for _ in range(1500):
            # head = X c^k Y and tail = Y^-1 Z, so the product X c^k Z
            # cancels down to the c power, which merges into X or, with X
            # empty, moves into the factor of Z; all empty gives 1
            x, y, z = spell(), _normalize_syllables(p, spell()), spell()
            if rng.random() < 0.5:
                tag = rng.choice((FACTOR_A, FACTOR_B))
                k = rng.choice((-2, -1, 1, 2))
                c = p.amalgam_word(tag)
                x.append((tag, c * k if k > 0 else inverse_word(c) * -k))
            head = _normalize_syllables(p, x + y)
            tail = _normalize_syllables(p, _inverse_form(y) + z)
            assert_seam_exact(p, head, tail)
            assert_seam_exact(p, head, _normalize_syllables(p, spell()))
            assert_seam_exact(p, head, _inverse_form(head))


def _small_sweep_instances(p):
    """(a, h, core, g) for every lemma_sweep instance at 1 letter and 2
    h-syllables, with g = h core h^-1 built by the full pass."""
    non_peripheral = {
        tag: [w for w in ws if not is_factor_peripheral(p, FactorElement(tag, w))]
        for tag, ws in _factor_words(p, 1).items()
    }
    for h in enumerate_h_words(p, 1, 2):
        q = list(h.syllables)
        for core_tag in (FACTOR_A, FACTOR_B):
            for core in non_peripheral[core_tag]:
                g = _normalize_syllables(p, q + [(core_tag, core)] + _inverse_form(q))
                for a in non_peripheral[FACTOR_A]:
                    yield a, q, (core_tag, core), g


def test_seam_matches_full_pass_on_small_sweep_instances():
    for p in DIFFERENTIAL_PRESENTATIONS:
        for a, h, core, g in _small_sweep_instances(p):
            assert _seam(p, _seam(p, h, [core]), _inverse_form(h)) == g
            assert_seam_exact(p, [A(a)], g)
            full = _normalize_syllables(p, [A(a)] + g)
            assert _instance_cyclic(p, a, g) == _rerun_cyclic(p, full)


def test_brute_force_matches_reference_on_small_sweep_forms():
    forms = {}
    for a, _, _, g in _small_sweep_instances(P):
        cyc = _instance_cyclic(P, a, g)
        forms.setdefault(tuple(cyc), cyc)
    table = _conjugator_table(P, 2, 2)
    answers = set()
    for cyc in forms.values():
        expected = reference_brute_force_conjugate_into_factor(P, cyc, 2, 2)
        w = AmalgamWord(tuple(cyc))
        assert brute_force_conjugate_into_factor(P, w, 2, 2) == expected
        assert brute_force_conjugate_into_factor(P, w, 2, 2, conjugators=table) == expected
        answers.add(expected)
    assert answers == {None, FACTOR_A}


def test_brute_force_matches_reference_on_conjugated_syllables():
    rng = random.Random(31)
    factor_words = _factor_words(P, 2)
    conjugators = [
        conj for count in (1, 2, 3) for conj in _alternating(P, factor_words, count)
    ]
    targets = [A(Y), B(V), A(X), B((2, 1, -2)), A((1, 2)), B((-1, -1))]
    answers = set()
    for target in targets:
        for conj in rng.sample(conjugators, 12):
            spelled = conj + [target] + _inverse_form(conj)
            expected = reference_brute_force_conjugate_into_factor(P, spelled, 2, 2)
            assert brute_force_conjugate_into_factor(P, AmalgamWord(tuple(spelled)), 2, 2) == expected
            if expected is not None:
                assert conjugate_into_factor(P, AmalgamWord(tuple(spelled))) == expected
            answers.add(expected)
    assert answers == {FACTOR_A, FACTOR_B, None}


def test_sweep_bounds_are_honoured():
    assert enumerate_h_words(P, 2, 0) == [W()]
    assert len(enumerate_h_words(P, 2, 1)) == 33
    for letters, syllables in ((0, 2), (1, -1)):
        with pytest.raises(PreconditionError):
            lemma_sweep(P, letters, syllables)
    report = lemma_sweep(P, 1, 0)
    assert report.passed and set(report.case_counts) == {"empty"}


def test_lemma_sweep_failure_reports(monkeypatch, capsys):
    # A stand-in gives a wrong answer on its n-th call, so each way the
    # sweep can fail is reached: statement 1, statement 2, and the oracle.
    counts = {"empty": 4, "single A": 16, "single B": 16}
    full = (
        "case empty: 4 instances\n"
        "case single A: 16 instances\n"
        "case single B: 16 instances\n"
        "statement 1 instances: 36\n"
        "statement 2 instances: 36\n"
        "oracle cross-checks: 35\n"
    )
    cases = [
        (
            "_statement_1_holds", 5, False,
            LemmaSweepReport(
                False, 5, 4, {"empty": 4, "single A": 1}, 0, True,
                failure="statement 1 failed on a=(A: b), h=(A: a), b=(B: b)",
            ),
            "case empty: 4 instances\n"
            "case single A: 1 instances\n"
            "statement 1 instances: 5\n"
            "statement 2 instances: 4\n"
            "oracle cross-checks: 0\n"
            "fail: statement 1 failed on a=(A: b), h=(A: a), b=(B: b)\n",
        ),
        (
            "_statement_2_holds", 3, False,
            LemmaSweepReport(
                False, 4, 3, {"empty": 4}, 0, True,
                failure="statement 2 failed on a=(A: b), h=(1), a'=(A: B)",
            ),
            "case empty: 4 instances\n"
            "statement 1 instances: 4\n"
            "statement 2 instances: 3\n"
            "oracle cross-checks: 0\n"
            "fail: statement 2 failed on a=(A: b), h=(1), a'=(A: B)\n",
        ),
        (
            "brute_force_conjugate_into_factor", 2, "stand-in",
            LemmaSweepReport(
                False, 36, 36, counts, 35, False,
                failure="oracle disagreement on (A: B)(B: b): None vs stand-in",
            ),
            full + "fail: oracle disagreement on (A: B)(B: b): None vs stand-in\n",
        ),
    ]
    argv = ["amalgam", "check-lemma", "--cA", "a", "--cB", "a"]
    argv += ["--max-letter", "1", "--max-syllables", "1"]
    for name, n, wrong, report, out in cases:

        def install(real=getattr(amalgam, name)):
            calls = []

            def stand_in(*args, **kwargs):
                calls.append(args)
                return wrong if len(calls) == n else real(*args, **kwargs)

            monkeypatch.setattr(amalgam, name, stand_in)

        install()
        assert lemma_sweep(P, 1, 1) == report
        install()
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().out == out
        monkeypatch.undo()
    assert lemma_sweep(P, 1, 1) == LemmaSweepReport(True, 36, 36, counts, 35, True)
    assert main(argv) == 0
    assert capsys.readouterr().out == full + "pass\n"
