"""Audits of maps between surfaces against bracket and intersection data.

A homomorphism between the free fundamental groups of two surface
symbols is audited over a bounded sample of class pairs: if it came from
an orientation-preserving homeomorphism every bracket must be carried
to the image bracket; an orientation-reversing one flips every sign;
anything else leaves a certificate.  A preserving verdict only means
"no violation up to the stated bound and sample".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .goldman import BracketElement, bracket_classes, is_simple
from .linking import linked_pairs, unguaranteed_reason
from .surface import (
    ParseError,
    SurfaceSymbol,
    is_excluded_surface,
    is_peripheral,
    parse_letter,
    parse_surface,
    tokenize_lines,
)
from .words import (
    CyclicClass,
    PreconditionError,
    TrivialClassError,
    canonical_cyclic,
    enumerate_cyclic_classes,
    format_word,
    inverse_word,
    parse_word,
)

PRESERVING = "preserving"
ANTI_PRESERVING = "anti_preserving"
VIOLATING = "violating"


class ExcludedSurfaceError(PreconditionError):
    """The target surface is excluded: the plane or the cylinder."""


@dataclass(frozen=True)
class SurfaceMap:
    """Generator images defining a homomorphism between symbol groups.

    ``expect_equivalence`` records the user's claim that the map is a
    homotopy equivalence; it is advisory and never verified.
    """

    source: SurfaceSymbol
    target: SurfaceSymbol
    images: tuple[tuple[int, ...], ...]
    expect_equivalence: bool = False

    def __post_init__(self):
        if len(self.images) != self.source.rank:
            raise ValueError("need one image word per source generator")
        for w in self.images:
            if any(abs(l) > self.target.rank for l in w):
                raise ValueError("image word uses letters beyond the target rank")


def apply_map(m: SurfaceMap, x: CyclicClass) -> CyclicClass:
    """Image class under the induced map on free homotopy classes."""
    out: list[int] = []
    for l in x.letters:
        image = m.images[abs(l) - 1]
        out.extend(image if l > 0 else inverse_word(image))
    return canonical_cyclic(out)


def apply_map_element(m: SurfaceMap, elem: BracketElement) -> BracketElement:
    out: dict[CyclicClass, int] = {}
    for cls, coeff in elem.terms():
        image = apply_map(m, cls)
        out[image] = out.get(image, 0) + coeff
    return BracketElement(out)


@dataclass(frozen=True)
class Certificate:
    """A class pair with both sides' computed values, re-verifiable."""

    x: CyclicClass
    y: CyclicClass
    pushed: object  # value computed in the source and mapped over
    direct: object  # value computed directly in the target


@dataclass(frozen=True)
class AuditReport:
    verdict: str
    certificates: tuple[Certificate, ...]
    length_bound: int
    sample_description: str
    pairs_checked: int
    pairs_skipped: int = 0

    def __post_init__(self):
        if self.verdict == VIOLATING and not self.certificates:
            raise ValueError("a violating verdict requires a certificate")


@dataclass(frozen=True)
class FillReport:
    passed: bool
    counterexample: Optional[CyclicClass]
    classes_checked: int


def enumerate_classes(
    s: SurfaceSymbol, length_bound: int, which: str = "all"
) -> list[CyclicClass]:
    """Non-trivial canonical classes up to the length bound, one per
    conjugacy class, in deterministic lexicographic order."""
    classes = enumerate_cyclic_classes(s.rank, length_bound)
    if which == "all":
        return classes
    if which == "nonperipheral":
        return [x for x in classes if not is_peripheral(s, x)]
    if which == "simple":
        return [x for x in classes if is_simple(s, x)]
    raise ValueError(f"unknown filter {which!r}")


def _audit(
    m: SurfaceMap,
    length_bound: int,
    sample: Optional[tuple[int, int]],
    compare: Callable[..., Optional[tuple]],
    regime: str = "",
) -> AuditReport:
    """The loop of both map audits over the sampled pairs of source
    classes, each class mapped once.  ``compare(x, fx, y, fy)`` gives
    (pushed, direct, preserved, negated), or None to skip the pair.  The
    certificates are the first ten pairs neither preserved nor negated,
    else the first pair not preserved and the first not negated."""
    if is_excluded_surface(m.target):
        raise ExcludedSurfaceError(
            "the target surface is excluded: not allowed to be the plane or the cylinder"
        )
    classes = enumerate_classes(m.source, length_bound)
    if sample is not None and sample[0] < 1:
        raise PreconditionError("the audit sample needs a pair count >= 1")
    mapped = [(x, apply_map(m, x)) for x in classes]
    pairs = [(a, b) for i, a in enumerate(mapped) for b in mapped[i:]]
    description = f"exhaustive over {len(classes)} classes"
    if sample is not None and sample[0] >= len(pairs):
        description += " (sample >= population)"
    elif sample is not None:
        count, seed = sample
        picked = sorted(random.Random(seed).sample(range(len(pairs)), count))
        pairs = [pairs[k] for k in picked]
        description = f"random {count} pairs, seed {seed}"
    not_preserved = not_negated = None
    neither: list[Certificate] = []
    checked = 0
    for (x, fx), (y, fy) in pairs:
        compared = compare(x, fx, y, fy)
        if compared is None:
            continue
        checked += 1
        pushed, direct, eq, neg = compared
        if eq and neg:
            continue
        cert = Certificate(x, y, pushed, direct)
        if not eq and not_preserved is None:
            not_preserved = cert
        if not neg and not_negated is None:
            not_negated = cert
        if not eq and not neg and len(neither) < 10:
            neither.append(cert)
    if not_preserved is None:
        verdict, certs = PRESERVING, ()
    elif not_negated is None:
        verdict, certs = ANTI_PRESERVING, ()
    else:
        verdict, certs = VIOLATING, tuple(neither or (not_preserved, not_negated))
    skipped = len(pairs) - checked
    return AuditReport(verdict, certs, length_bound, description + regime, checked, skipped)


def audit_bracket(
    m: SurfaceMap, length_bound: int, sample: Optional[tuple[int, int]] = None
) -> AuditReport:
    """Compare mapped brackets with brackets of mapped classes over the
    chosen sample of source class pairs."""

    def compare(x, fx, y, fy):
        pushed = apply_map_element(m, bracket_classes(m.source, x, y))
        direct = bracket_classes(m.target, fx, fy)
        return pushed, direct, direct == pushed, direct == -pushed

    return _audit(m, length_bound, sample, compare)


def audit_intersection(
    m: SurfaceMap,
    length_bound: int,
    mode: str = "zero_pattern",
    sample: Optional[tuple[int, int]] = None,
) -> AuditReport:
    """Compare intersection numbers across the map.

    Pairs are restricted to the regime where the count is guaranteed
    (``unguaranteed_reason`` is None for the pair and for its image);
    skipped pairs are tallied in the report.  A count has no sign, so
    the verdict is never anti-preserving and the certificates are the
    first ten failing pairs.
    """
    if mode not in ("zero_pattern", "exact"):
        raise ValueError("mode must be 'zero_pattern' or 'exact'")

    def compare(x, fx, y, fy):
        if unguaranteed_reason(x, y) or unguaranteed_reason(fx, fy):
            return None
        source_count = len(linked_pairs(m.source, x, y))
        target_count = len(linked_pairs(m.target, fx, fy))
        zeros_agree = (source_count == 0) == (target_count == 0)
        ok = zeros_agree if mode == "zero_pattern" else source_count == target_count
        return source_count, target_count, ok, False

    return _audit(
        m, length_bound, sample, compare, f", mode {mode}, guaranteed regime only"
    )


def fill_check(
    s: SurfaceSymbol, system: Sequence[CyclicClass], length_bound: int
) -> FillReport:
    """Whether every non-peripheral class up to the bound is forced to
    cross some member of the system."""
    for member in system:
        if member.is_trivial:
            raise TrivialClassError("filling systems cannot contain the trivial class")
    checked = 0
    for y in enumerate_classes(s, length_bound, "nonperipheral"):
        checked += 1
        if all(not linked_pairs(s, y, member) for member in system):
            return FillReport(False, y, checked)
    return FillReport(True, None, checked)


def parse_map_file(text: str, base_dir: Path) -> SurfaceMap:
    """Parse the map format::

        source torus.srf
        target pants.srf
        map a -> ab
        map b -> b

    Surface paths are resolved relative to the map file's directory.
    """
    source: Optional[SurfaceSymbol] = None
    target: Optional[SurfaceSymbol] = None
    # generator -> (image token, line, column); parsed once the target rank is known
    image_tokens: dict[int, tuple[str, int, int]] = {}
    expect = False
    for lineno, fields, cols in tokenize_lines(text):
        keyword, col = fields[0], cols[0]
        if keyword in ("source", "target"):
            if len(fields) != 2:
                raise ParseError(f"expected '{keyword} <surface-file>'", lineno, col)
            if (source if keyword == "source" else target) is not None:
                raise ParseError(f"duplicate '{keyword}' line", lineno, col)
            path = base_dir / fields[1]
            try:
                symbol = parse_surface(path.read_text())
            except OSError as exc:
                raise ParseError(f"cannot read {path}: {exc}", lineno, col) from exc
            except ParseError as exc:
                raise ParseError(f"in {fields[1]}: {exc}", lineno, col) from exc
            if keyword == "source":
                source = symbol
            else:
                target = symbol
        elif keyword == "map":
            if len(fields) != 4 or fields[2] != "->":
                raise ParseError("expected 'map <generator> -> <word>'", lineno, col)
            if source is None:
                raise ParseError("'map' before 'source'", lineno, col)
            gen = parse_letter(fields[1], source.rank, lineno, cols[1])
            if gen < 0:
                raise ParseError("map lines name generators, not inverses", lineno, col)
            if gen in image_tokens:
                raise ParseError(f"duplicate image for generator {fields[1]}", lineno, cols[1])
            image_tokens[gen] = (fields[3], lineno, cols[3])
        elif keyword == "expect_equivalence":
            if len(fields) != 1:
                raise ParseError("expected 'expect_equivalence'", lineno, col)
            if expect:
                raise ParseError("duplicate 'expect_equivalence' line", lineno, col)
            expect = True
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, col)
    if source is None or target is None:
        raise ParseError("map file must define 'source' and 'target'", 1, 1)
    missing = [g for g in range(1, source.rank + 1) if g not in image_tokens]
    if missing:
        raise ParseError(
            f"missing images for generators: {', '.join(format_word((g,)) for g in missing)}",
            1,
            1,
        )
    images = []
    for g in range(1, source.rank + 1):
        token, lineno, col = image_tokens[g]
        try:
            images.append(parse_word(token, rank=target.rank))
        except ValueError as exc:
            raise ParseError(str(exc), lineno, col) from exc
    return SurfaceMap(source, target, tuple(images), expect)


__all__ = [
    "ANTI_PRESERVING",
    "AuditReport",
    "Certificate",
    "ExcludedSurfaceError",
    "FillReport",
    "PRESERVING",
    "SurfaceMap",
    "VIOLATING",
    "apply_map",
    "apply_map_element",
    "audit_bracket",
    "audit_intersection",
    "enumerate_classes",
    "fill_check",
    "parse_map_file",
]
