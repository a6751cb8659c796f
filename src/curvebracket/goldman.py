"""The Goldman bracket on integer combinations of free homotopy classes.

For classes x, y the bracket is the signed sum, over all linked pairs of
occurrences, of the class of the two words concatenated at the shared
vertex visit.  Sign convention: with counterclockwise germ order
(a, b, A, B) on the punctured torus, [a, b] = +1 * class(ab).  Flipping
the hand-drawing convention would flip exactly this one constant; every
property in the test suite except that calibration case is agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# _linked_cells is bound, never called, for the benchmark's fork-isolation
# test (bench/test_bench.py); every kernel call goes through linked_pairs
from .linking import _linked_cells, linked_pairs  # noqa: F401
from .surface import SurfaceSymbol
from .words import (
    CyclicClass,
    TrivialClassError,
    canonical_cyclic,
    enumerate_cyclic_classes,
    parse_word,
    primitive_root,
    rotation,
)


class BracketElement:
    """Finitely supported integer combination of CyclicClass values.

    Zero coefficients are never stored, so equality and is-zero tests
    are structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[CyclicClass, int]] = None):
        self._terms = {c: k for c, k in (terms or {}).items() if k}

    @classmethod
    def zero(cls) -> "BracketElement":
        return cls()

    @classmethod
    def of(cls, x: CyclicClass, coeff: int = 1) -> "BracketElement":
        return cls({x: coeff})

    def terms(self) -> list[tuple[CyclicClass, int]]:
        """Term list sorted by canonical word, for deterministic output."""
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def coefficient(self, x: CyclicClass) -> int:
        return self._terms.get(x, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, BracketElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "BracketElement") -> "BracketElement":
        out = dict(self._terms)
        for c, k in other._terms.items():
            out[c] = out.get(c, 0) + k
        return BracketElement(out)

    def __neg__(self) -> "BracketElement":
        return BracketElement({c: -k for c, k in self._terms.items()})

    def __sub__(self, other: "BracketElement") -> "BracketElement":
        return self + (-other)

    def scale(self, k: int) -> "BracketElement":
        return BracketElement({c: k * v for c, v in self._terms.items()})

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{k:+d}*{c}" for c, k in self.terms())

    def __repr__(self) -> str:
        return f"BracketElement({self})"


def parse_element(text: str, rank: int | None = None) -> BracketElement:
    """Parse the linear-combination syntax, e.g. ``2*abAB + -1*ab``."""
    text = text.strip()
    if text == "0":
        return BracketElement.zero()
    terms: dict[CyclicClass, int] = {}
    chunks = [c.strip() for c in text.split("+")]
    for chunk in (c for c in chunks if c):
        if "*" not in chunk:
            raise ValueError(f"expected '<coeff>*<word>', got {chunk!r}")
        coeff_text, word_text = chunk.split("*", 1)
        coeff = int(coeff_text.strip())
        cls = canonical_cyclic(parse_word(word_text.strip(), rank=rank))
        terms[cls] = terms.get(cls, 0) + coeff
    return BracketElement(terms)


def bracket_classes(
    s: SurfaceSymbol, x: CyclicClass, y: CyclicClass
) -> BracketElement:
    """Bracket of two classes: signed concatenations over linked pairs.

    Defined for every class, trivial and non-primitive included; the sum
    runs over the full occurrence grid.
    """
    if x.is_trivial or y.is_trivial:
        return BracketElement.zero()
    terms: dict[CyclicClass, int] = {}
    for i, j, sign in linked_pairs(s, x, y):
        c = canonical_cyclic(rotation(x, i) + rotation(y, j))
        terms[c] = terms.get(c, 0) + sign
    return BracketElement(terms)


def bracket(s: SurfaceSymbol, lhs: BracketElement, rhs: BracketElement) -> BracketElement:
    """Bilinear extension of bracket_classes."""
    out = BracketElement.zero()
    for x, a in lhs.terms():
        for y, b in rhs.terms():
            out = out + bracket_classes(s, x, y).scale(a * b)
    return out


def is_simple(s: SurfaceSymbol, x: CyclicClass) -> bool:
    """Whether x has an embedded representative: primitive with no
    forced self-crossings."""
    if x.is_trivial:
        raise TrivialClassError("simplicity is undefined for the trivial class")
    return primitive_root(x)[1] == 1 and not linked_pairs(s, x, x)


@dataclass(frozen=True)
class SccReport:
    """Outcome of the simple-curve criterion sweep."""

    passed: bool
    length_bound: int
    classes_checked: int
    simple_classes: int
    pairs_checked: int
    violation: Optional[tuple[CyclicClass, CyclicClass]] = None


def _scc_worker(args) -> Optional[tuple[int, int]]:
    """First (x position among the simple classes, y index) where bracket
    vanishing and linked-pair vanishing disagree, over one chunk of the
    sweep: args is (surface, chunk of (position, simple class), all
    classes).  None if there is none."""
    s, simple_classes, all_classes = args
    for xp, x in simple_classes:
        for yi, y in enumerate(all_classes):
            if not linked_pairs(s, x, y):
                continue  # empty sum is zero on both sides
            if bracket_classes(s, x, y).is_zero:
                return (xp, yi)
    return None


def scc_criterion_audit(
    s: SurfaceSymbol, length_bound: int, workers: int | None = None
) -> SccReport:
    """Check, for every simple x and every y up to the length bound, that
    the bracket vanishes exactly when the linked-pair count does.

    The simple classes are dealt into ``workers`` chunks, swept in a
    process pool (in this process for at most one worker); the least of
    the chunks' first violations in (x, y) order is reported, whatever
    the worker count.  ``pairs_checked`` counts the pairs up to and
    including that violation in (x, y) order, or all pairs on a pass.
    """
    classes = enumerate_cyclic_classes(s.rank, length_bound)
    simples = list(enumerate(x for x in classes if is_simple(s, x)))
    workers = max(workers or 1, 1)
    chunks = (simples[k::workers] for k in range(workers))
    jobs = [(s, chunk, classes) for chunk in chunks if chunk]
    if workers > 1 and simples:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(_scc_worker, jobs))
    else:
        found = map(_scc_worker, jobs)
    violation = min((v for v in found if v is not None), default=None)
    pairs_checked = len(simples) * len(classes)
    if violation is not None:
        xp, yi = violation
        pairs_checked = xp * len(classes) + yi + 1
        violation = (simples[xp][1], classes[yi])
    return SccReport(
        passed=violation is None,
        length_bound=length_bound,
        classes_checked=len(classes),
        simple_classes=len(simples),
        pairs_checked=pairs_checked,
        violation=violation,
    )


__all__ = [
    "BracketElement",
    "SccReport",
    "bracket",
    "bracket_classes",
    "is_simple",
    "parse_element",
    "scc_criterion_audit",
]
