"""Free products with amalgamation over an infinite cyclic subgroup.

G = A *_C B with A, B free and C generated by a fixed non-trivial
cyclically reduced word in each factor (c_A in A, c_B in B).  Elements
carry alternating syllable normal forms; the syllable length of the
reduced form is an invariant of the element, and the cyclically reduced
length is a conjugacy invariant.  An element is conjugate into a factor
exactly when its cyclically reduced form has at most one syllable, the
criterion everything here runs on; a bounded brute-force conjugator
search acts as the independent oracle.

Reduced forms come from one left-to-right pass with a stack
(Magnus-Karrass-Solitar section 4.2; Lyndon-Schupp chapter IV).  Each
incoming syllable is freely reduced, and dropped if empty.  It merges
into the top of the stack when both lie in the same factor; a power of
c arriving on a syllable of the other factor is first rewritten in that
factor; a power of c alone on the stack moves into the factor of the
next syllable (the leftmost power of c goes first).  A merged syllable
goes through the same steps again, so a top that collapses to the
identity or to a power of c carries on into the syllable below.

One pass is enough: between incoming syllables the stack is a reduced
form (alternating factors, no power of c unless it is the only
syllable), so only the top can interact with what comes next, and
every step keeps the product while it pops the stack or ends in a push.
The work is linear in the number of syllables; nothing restarts.

Products of two reduced forms head * g are worked only at the seam: the
pass starts with head as its stack and pushes g's syllables, and copies
the rest of g as it is once a syllable goes on unchanged.  That happens
when the top of the stack lies in the other factor, the stack is not a
lone power of c, and the syllable is not a power of c.  This is exact,
spelling for spelling: if g has a syllable after that one, g has at
least two syllables, so (being reduced) none of them is a power of c
and they alternate.  The next syllable then meets a top of the other
factor that is not a power of c, on a stack of two or more, and goes on
unchanged too.  For the same reason only a one-syllable g is tested for
a power of c.  Cyclic reduction rotates the last syllable in this way,
the lemma sweep forms g = h * core * h^-1 from the reduced h and then
a * g, and the brute-force oracle forms q * w * q^-1 from a table of
reduced (q, q^-1) pairs, built once per sweep.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .words import (
    PreconditionError,
    canonical_cyclic,
    cyclic_reduce,
    enumerate_reduced_words,
    format_word,
    inverse_word,
    is_power_of,
    reduce,
)

FACTOR_A = "A"
FACTOR_B = "B"

# lemma_sweep refuses bounds that allow more instances than this
SWEEP_INSTANCE_LIMIT = 10_000_000


class HypothesisError(PreconditionError):
    """A lemma-checking operation was called with its hypotheses violated."""


@dataclass(frozen=True)
class AmalgamPresentation:
    """Two free factors and the images of the cyclic edge group."""

    rank_a: int
    rank_b: int
    c_a: tuple[int, ...]
    c_b: tuple[int, ...]

    def __post_init__(self):
        for rank, c, name in (
            (self.rank_a, self.c_a, "c_a"),
            (self.rank_b, self.c_b, "c_b"),
        ):
            if rank < 1:
                raise ValueError("factor ranks must be at least 1")
            if not c:
                raise ValueError(f"{name} must be non-trivial")
            if cyclic_reduce(c) != c:
                raise ValueError(f"{name} must be cyclically reduced")
            if any(abs(l) > rank for l in c):
                raise ValueError(f"{name} uses letters beyond its factor rank")

    def amalgam_word(self, factor: str) -> tuple[int, ...]:
        return self.c_a if factor == FACTOR_A else self.c_b

    @cached_property
    def edge_words(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """(c, c**-1) in each factor."""
        pairs = ((FACTOR_A, self.c_a), (FACTOR_B, self.c_b))
        return {tag: (c, inverse_word(c)) for tag, c in pairs}

    def other(self, factor: str) -> str:
        return FACTOR_B if factor == FACTOR_A else FACTOR_A


@dataclass(frozen=True)
class FactorElement:
    """A reduced word in one of the free factors."""

    factor: str
    word: tuple[int, ...]

    def __post_init__(self):
        if self.factor not in (FACTOR_A, FACTOR_B):
            raise ValueError("factor must be 'A' or 'B'")
        if reduce(self.word) != self.word:
            raise ValueError("factor element words must be reduced")

    def __str__(self) -> str:
        return f"({self.factor}: {format_word(self.word) or '1'})"


@dataclass(frozen=True)
class AmalgamWord:
    """Alternating syllable spelling of an element of the amalgam.

    The empty syllable sequence is the identity.
    """

    syllables: tuple[tuple[str, tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.syllables)

    def __str__(self) -> str:
        if not self.syllables:
            return "(1)"
        return "".join(f"({tag}: {format_word(w)})" for tag, w in self.syllables)


def c_power_of(p: AmalgamPresentation, factor: str, word: tuple[int, ...]) -> Optional[int]:
    """k with the reduced word equal to c**k in the given factor, if any
    (0 for the empty word)."""
    if not word:
        return 0
    c, c_inv = p.edge_words[factor]
    n = len(c)
    head = word[:n]
    if head != c and head != c_inv:
        return None
    q, r = divmod(len(word), n)
    if r or word[n:] != word[:-n]:
        return None
    return q if head == c else -q


def _c_power_word(p: AmalgamPresentation, factor: str, k: int) -> tuple[int, ...]:
    c, c_inv = p.edge_words[factor]
    return c * k if k >= 0 else c_inv * -k


def _push(
    p: AmalgamPresentation,
    out: list[tuple[str, tuple[int, ...]]],
    tag: str,
    w: tuple[int, ...],
) -> None:
    """Push the freely reduced syllable (tag, w) onto the reduced form
    out, in place: one step of the stack pass."""
    while w:
        if out and out[-1][0] == tag:
            w = reduce(out.pop()[1] + w)
        elif len(out) == 1 and (k := c_power_of(p, *out[0])) is not None:
            out.pop()
            w = reduce(_c_power_word(p, tag, k) + w)
        elif out and (k := c_power_of(p, tag, w)) is not None:
            tag = out[-1][0]
            w = _c_power_word(p, tag, k)
        else:
            out.append((tag, w))
            return


def _normalize_syllables(
    p: AmalgamPresentation, syllables: list[tuple[str, tuple[int, ...]]]
) -> list[tuple[str, tuple[int, ...]]]:
    """The reduced form of the product, by the stack pass described in
    the module docstring."""
    out: list[tuple[str, tuple[int, ...]]] = []
    for tag, w in syllables:
        _push(p, out, tag, reduce(w))
    return out


def _seam(
    p: AmalgamPresentation,
    head: list[tuple[str, tuple[int, ...]]],
    g: list[tuple[str, tuple[int, ...]]],
) -> list[tuple[str, tuple[int, ...]]]:
    """The reduced form of head * g, both reduced forms: the stack pass
    started at head, which copies the rest of g once a syllable of g
    would go on unchanged (see the module docstring).  The result is
    spelled exactly as _normalize_syllables(p, head + g)."""
    out = list(head)
    for i, (tag, w) in enumerate(g):
        if (
            out
            and out[-1][0] != tag
            and not (len(out) == 1 and c_power_of(p, *out[0]) is not None)
            and (len(g) > 1 or c_power_of(p, tag, w) is None)
        ):
            return out + g[i:]
        _push(p, out, tag, w)
    return out


def normalize(p: AmalgamPresentation, w: AmalgamWord) -> AmalgamWord:
    """Reduced form: alternating factors, no syllable a power of the edge
    generator unless the whole word is a single syllable or trivial.
    The output's syllable count is an invariant of the element."""
    return AmalgamWord(tuple(_normalize_syllables(p, list(w.syllables))))


def _cyclic_normalize_syllables(
    p: AmalgamPresentation, form: list[tuple[str, tuple[int, ...]]]
) -> list[tuple[str, tuple[int, ...]]]:
    """A cyclically reduced conjugate of the reduced form: while its
    ends lie in one factor, the last syllable is rotated to the front
    through the seam."""
    while len(form) >= 2 and form[0][0] == form[-1][0]:
        form = _seam(p, [form[-1]], form[:-1])
    return form


def cyclic_normalize(p: AmalgamPresentation, w: AmalgamWord) -> AmalgamWord:
    """A cyclically reduced conjugate: first and last syllables lie in
    different factors, or the length is at most one.  The output length
    is a conjugacy invariant."""
    reduced = _normalize_syllables(p, list(w.syllables))
    return AmalgamWord(tuple(_cyclic_normalize_syllables(p, reduced)))


def conjugate_into_factor(p: AmalgamPresentation, w: AmalgamWord) -> Optional[str]:
    """Factor containing a conjugate of w, if any.

    A cyclically reduced word of syllable length two or more is never
    conjugate into a factor.  Elements conjugate into the edge group C,
    the identity among them, lie in both factors; for them the answer is
    always factor A, whatever the spelling of w.
    """
    reduced = _normalize_syllables(p, list(w.syllables))
    return _factor_of(p, _cyclic_normalize_syllables(p, reduced))


def _factor_of(
    p: AmalgamPresentation, syllables: list[tuple[str, tuple[int, ...]]]
) -> Optional[str]:
    """The factor a reduced form of at most one syllable lies in, A for
    conjugates of powers of c; None for longer forms."""
    if len(syllables) >= 2:
        return None
    if not syllables or is_factor_peripheral(p, FactorElement(*syllables[0])):
        return FACTOR_A
    return syllables[0][0]


def is_factor_peripheral(p: AmalgamPresentation, e: FactorElement) -> bool:
    """Whether e is conjugate, inside its own free factor, to a power of
    that factor's edge generator (the identity counts)."""
    cyc = canonical_cyclic(e.word)
    if cyc.is_trivial:
        return True
    return is_power_of(cyc, canonical_cyclic(p.amalgam_word(e.factor)))


def _inverse_form(
    form: list[tuple[str, tuple[int, ...]]]
) -> list[tuple[str, tuple[int, ...]]]:
    """The reduced form of the inverse of a reduced form."""
    return [(tag, inverse_word(w)) for tag, w in reversed(form)]


def _statement_1_holds(
    cyc: list[tuple[str, tuple[int, ...]]], g: list[tuple[str, tuple[int, ...]]]
) -> bool:
    """Statement 1's conclusion, given the cyclic form of a * g (g is not
    read): a * g is not conjugate into a factor."""
    return len(cyc) >= 2


def _statement_2_holds(
    cyc: list[tuple[str, tuple[int, ...]]], g: list[tuple[str, tuple[int, ...]]]
) -> bool:
    """Statement 2's conclusion, given the cyclic form of a * g and the
    reduced form of g: if a * g is conjugate into a factor, g lies in A."""
    return len(cyc) >= 2 or not g or (len(g) == 1 and g[0][0] == FACTOR_A)


def _instance_cyclic(
    p: AmalgamPresentation, a: tuple[int, ...], g: list[tuple[str, tuple[int, ...]]]
) -> list[tuple[str, tuple[int, ...]]]:
    """The cyclic form of a * g, for a word a of factor A and a reduced
    form g: only the seam of the product is worked."""
    return _cyclic_normalize_syllables(p, _seam(p, [(FACTOR_A, a)], g))


def check_lemma_statement_1(
    p: AmalgamPresentation, a: FactorElement, h: AmalgamWord, b: FactorElement
) -> bool:
    """With a in A non-peripheral and b in B non-peripheral, the product
    a * (h b h^-1) must not be conjugate into a factor.  Returns whether
    that held; False would falsify the implementation or the model."""
    if a.factor != FACTOR_A or b.factor != FACTOR_B:
        raise HypothesisError("statement 1 needs a in factor A and b in factor B")
    if is_factor_peripheral(p, a):
        raise HypothesisError("a must not be conjugate into the edge subgroup")
    if is_factor_peripheral(p, b):
        raise HypothesisError("b must not be conjugate into the edge subgroup")
    h_form = _normalize_syllables(p, list(h.syllables))
    g = _seam(p, _seam(p, h_form, [(FACTOR_B, b.word)]), _inverse_form(h_form))
    return _statement_1_holds(_instance_cyclic(p, a.word, g), g)


def check_lemma_statement_2(
    p: AmalgamPresentation, a: FactorElement, h: AmalgamWord, a_prime: FactorElement
) -> bool:
    """With a in A non-peripheral, g = h a' h^-1 conjugate to the
    non-peripheral a' in A: if a*g is conjugate into a factor then g must
    already lie in A.  Returns whether the implication held."""
    if a.factor != FACTOR_A or a_prime.factor != FACTOR_A:
        raise HypothesisError("statement 2 needs a and a' in factor A")
    if is_factor_peripheral(p, a):
        raise HypothesisError("a must not be conjugate into the edge subgroup")
    if is_factor_peripheral(p, a_prime):
        raise HypothesisError("a' must not be conjugate into the edge subgroup")
    h_form = _normalize_syllables(p, list(h.syllables))
    g = _seam(p, _seam(p, h_form, [(FACTOR_A, a_prime.word)]), _inverse_form(h_form))
    return _statement_2_holds(_instance_cyclic(p, a.word, g), g)


def _factor_words(p: AmalgamPresentation, max_letters: int) -> dict:
    """Non-empty reduced words of at most max_letters letters, per factor."""
    return {
        tag: [w for w in enumerate_reduced_words(rank, max_letters) if w]
        for tag, rank in ((FACTOR_A, p.rank_a), (FACTOR_B, p.rank_b))
    }


def _alternating(p: AmalgamPresentation, words: dict, count: int):
    """Every alternating sequence of count syllables drawn from the given
    words per factor, those starting in A first."""
    for start in (FACTOR_A, FACTOR_B):
        tags = [start if k % 2 == 0 else p.other(start) for k in range(count)]
        for choice in itertools.product(*(words[t] for t in tags)):
            yield list(zip(tags, choice))


def _conjugator_table(
    p: AmalgamPresentation, max_syllables: int, max_letters: int
) -> list[tuple[list, list]]:
    """(q, q^-1) as reduced forms for every conjugator the brute-force
    oracle searches, in search order."""
    factor_words = _factor_words(p, max_letters)
    table = []
    for count in range(1, max_syllables + 1):
        for conj in _alternating(p, factor_words, count):
            q = _normalize_syllables(p, conj)
            table.append((q, _inverse_form(q)))
    return table


def brute_force_conjugate_into_factor(
    p: AmalgamPresentation,
    w: AmalgamWord,
    max_syllables: int = 2,
    max_letters: int = 2,
    *,
    conjugators: Optional[list[tuple[list, list]]] = None,
) -> Optional[str]:
    """Independent oracle: search conjugators q with at most the given
    syllable count, each syllable a reduced factor word of at most the
    given length, for one making q w q^-1 a single syllable.

    Absence only means absence within the bounds.  Intended for small
    bounds (max_syllables <= 4, max_letters <= 3).  conjugators, if
    given, is _conjugator_table for the same bounds, built once by a
    caller that searches many words.
    """
    if max_syllables > 4 or max_letters > 3:
        raise PreconditionError("brute force bounds are capped at 4 syllables, 3 letters")
    base = _normalize_syllables(p, list(w.syllables))
    if len(base) <= 1:
        return _factor_of(p, base)
    if conjugators is None:
        conjugators = _conjugator_table(p, max_syllables, max_letters)
    for q, q_inv in conjugators:
        result = _seam(p, _seam(p, q, base), q_inv)
        if len(result) <= 1:
            return _factor_of(p, result)
    return None


@dataclass(frozen=True)
class LemmaSweepReport:
    """Exhaustive Lemma check over bounded instances."""

    passed: bool
    instances_1: int
    instances_2: int
    case_counts: dict[str, int]
    oracle_checked: int
    oracle_agreed: bool
    failure: Optional[str] = None


def _h_shape(syllables: tuple[tuple[str, tuple[int, ...]], ...]) -> str:
    if not syllables:
        return "empty"
    tags = [tag for tag, _ in syllables]
    return f"{tags[0]}..{tags[-1]}" if len(tags) > 1 else f"single {tags[0]}"


def enumerate_h_words(
    p: AmalgamPresentation, max_letters: int, max_syllables: int
) -> list[AmalgamWord]:
    """Reduced-form conjugating words: alternating syllables, none a
    power of the edge generator (single-syllable h may be anything)."""
    words = _factor_words(p, max_letters)
    non_c = {
        tag: [w for w in ws if c_power_of(p, tag, w) is None]
        for tag, ws in words.items()
    }
    out = [AmalgamWord(())]
    if max_syllables >= 1:
        for tag in (FACTOR_A, FACTOR_B):
            out.extend(AmalgamWord(((tag, w),)) for w in words[tag])
    for count in range(2, max_syllables + 1):
        out.extend(AmalgamWord(tuple(s)) for s in _alternating(p, non_c, count))
    return out


def _word_count(rank: int, max_letters: int) -> float:
    """The number of non-empty reduced words of at most max_letters
    letters in a free group of the given rank, sum of 2r(2r-1)^(k-1)
    over k; inf once it overflows a float."""
    if rank == 1:
        return 2.0 * max_letters
    try:
        return rank * ((2 * rank - 1.0) ** max_letters - 1) / (rank - 1)
    except OverflowError:
        return math.inf


def _sweep_bound(p: AmalgamPresentation, max_letters: int, max_h_syllables: int) -> float:
    """An upper bound on the lemma sweep's instances from the ranks and
    bounds alone: H * W_A * (W_A + W_B), with W the words per factor and
    H the empty h plus both alternations of every syllable count."""
    w_a, w_b = _word_count(p.rank_a, max_letters), _word_count(p.rank_b, max_letters)
    h, from_a, from_b = 1.0, w_a, w_b
    for _ in range(max_h_syllables):
        h += from_a + from_b
        if h == math.inf:
            break
        from_a, from_b = w_a * from_b, w_b * from_a
    return h * w_a * (w_a + w_b)


def lemma_sweep(
    p: AmalgamPresentation,
    max_letters: int = 2,
    max_h_syllables: int = 3,
    oracle_sample: int = 400,
    oracle_seed: int = 0,
) -> LemmaSweepReport:
    """Run both lemma statements over every bounded instance and compare
    conjugate_into_factor with the brute-force oracle on a deduplicated
    selection of the instances' cyclic forms."""
    if max_letters < 1 or max_h_syllables < 0:
        raise PreconditionError(
            "the sweep needs max_letters >= 1 and max_h_syllables >= 0"
        )
    bound = _sweep_bound(p, max_letters, max_h_syllables)
    if bound > SWEEP_INSTANCE_LIMIT:
        raise PreconditionError(
            f"the sweep bounds allow up to {bound:.2g} instances, over the limit "
            f"of {SWEEP_INSTANCE_LIMIT:.0e}; lower max_letters or max_h_syllables"
        )
    non_peripheral = {
        tag: [e for e in (FactorElement(tag, w) for w in ws) if not is_factor_peripheral(p, e)]
        for tag, ws in _factor_words(p, max_letters).items()
    }
    h_words = enumerate_h_words(p, max_letters, max_h_syllables)

    # (factor of the core that h conjugates, the core's name, the
    # conclusion); built per call, so a replaced conclusion is the one run
    statements = ((FACTOR_B, "b", _statement_1_holds), (FACTOR_A, "a'", _statement_2_holds))
    tallies = ({}, {})  # instances per h-shape, one tally per statement
    oracle_forms: dict[tuple, None] = {}

    def report(passed: bool, checked: int, agreed: bool, failure: Optional[str] = None):
        instances = (sum(t.values()) for t in tallies)
        return LemmaSweepReport(passed, *instances, tallies[0], checked, agreed, failure)

    for h in h_words:
        shape = _h_shape(h.syllables)
        h_list = list(h.syllables)
        h_inv = _inverse_form(h_list)
        keep_for_oracle = len(h_list) <= 2
        for number, ((tag, name, holds), tally) in enumerate(zip(statements, tallies), 1):
            for core in non_peripheral[tag]:
                g = _seam(p, _seam(p, h_list, [(tag, core.word)]), h_inv)
                for a in non_peripheral[FACTOR_A]:
                    cyc = _instance_cyclic(p, a.word, g)
                    tally[shape] = tally.get(shape, 0) + 1
                    if not holds(cyc, g):
                        failure = f"statement {number} failed on a={a}, h={h}, {name}={core}"
                        return report(False, 0, True, failure)
                    if keep_for_oracle:
                        oracle_forms[tuple(cyc)] = None

    rng = random.Random(oracle_seed)
    forms = list(oracle_forms)
    if len(forms) > oracle_sample:
        forms = rng.sample(forms, oracle_sample)
    conjugators = _conjugator_table(p, 2, 2)
    for form in map(AmalgamWord, forms):
        quick = conjugate_into_factor(p, form)
        slow = brute_force_conjugate_into_factor(p, form, 2, 2, conjugators=conjugators)
        if quick != slow:
            failure = f"oracle disagreement on {form}: {quick} vs {slow}"
            return report(False, len(forms), False, failure)
    return report(True, len(forms), True)


__all__ = [
    "AmalgamPresentation",
    "AmalgamWord",
    "FACTOR_A",
    "FACTOR_B",
    "FactorElement",
    "HypothesisError",
    "LemmaSweepReport",
    "brute_force_conjugate_into_factor",
    "c_power_of",
    "check_lemma_statement_1",
    "check_lemma_statement_2",
    "conjugate_into_factor",
    "cyclic_normalize",
    "enumerate_h_words",
    "is_factor_peripheral",
    "lemma_sweep",
    "normalize",
]
