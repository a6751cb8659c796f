"""Oriented surfaces as one-vertex fat graphs.

A ``SurfaceSymbol`` is a rank n together with a counterclockwise cyclic
order of the 2n directed edge-germs at the single vertex.  Thickening
gives a compact oriented surface with boundary; its interior is the
punctured surface whose fundamental group is free of rank n.

Faces of the fat graph are traced with the fixed rule: the germ after
``g`` is the successor of ``g``'s inverse in the counterclockwise
order.  The opposite convention would invert every boundary word, which
is invisible to peripherality checks (they work up to inversion).
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .words import (
    CyclicClass,
    PreconditionError,
    TrivialClassError,
    canonical_cyclic,
    format_word,
    is_power_of,
    parse_word,
)


class ParseError(ValueError):
    """A text input failed to parse; carries line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class SurfaceSymbol:
    """Rank plus counterclockwise germ order, e.g. rank 2, (a, b, A, B)."""

    rank: int
    germ_order: tuple[int, ...]

    def __post_init__(self):
        n = self.rank
        if n < 1:
            raise ValueError("rank must be at least 1")
        expected = set(range(1, n + 1)) | set(range(-1, -n - 1, -1))
        if len(self.germ_order) != 2 * n or set(self.germ_order) != expected:
            raise ValueError(
                "germ_order must contain each of the 2n directed germs exactly once"
            )

    def __str__(self) -> str:
        return f"rank {self.rank}, order {' '.join(format_word((g,)) for g in self.germ_order)}"


@lru_cache(maxsize=None)
def germ_positions(s: SurfaceSymbol) -> dict[int, int]:
    return {g: i for i, g in enumerate(s.germ_order)}


@lru_cache(maxsize=None)
def boundary_cycles(s: SurfaceSymbol) -> tuple[CyclicClass, ...]:
    """One canonical cyclic word per face, sorted by canonical form.

    Face tracing: from germ g move to successor(inverse(g)).
    """
    pos = germ_positions(s)
    order = s.germ_order
    n2 = len(order)
    succ = {g: order[(pos[g] + 1) % n2] for g in order}
    unvisited = set(order)
    faces = []
    while unvisited:
        start = min(unvisited, key=lambda g: pos[g])
        cycle = []
        g = start
        while True:
            cycle.append(g)
            unvisited.discard(g)
            g = succ[-g]
            if g == start:
                break
        faces.append(canonical_cyclic(tuple(cycle)))
    faces.sort(key=CyclicClass.sort_key)
    return tuple(faces)


def classify(s: SurfaceSymbol) -> tuple[int, int]:
    """(genus, boundary count) of the thickened surface.

    The spine has Euler characteristic 1 - n, so 2g + b = n + 1.
    """
    b = len(boundary_cycles(s))
    chi = 1 - s.rank
    g2 = 2 - chi - b
    if g2 < 0 or g2 % 2:
        raise AssertionError(f"inconsistent classification for {s}")
    return g2 // 2, b


def is_excluded_surface(s: SurfaceSymbol) -> bool:
    """True for the cylinder (genus 0, two boundary circles); the disc
    cannot arise since rank 0 symbols are rejected at construction."""
    return classify(s) == (0, 2)


def is_peripheral(s: SurfaceSymbol, x: CyclicClass) -> bool:
    """Whether x is, up to inversion, a positive power of a boundary cycle."""
    if x.is_trivial:
        raise TrivialClassError("peripherality is undefined for the trivial class")
    return any(is_power_of(x, cycle) for cycle in boundary_cycles(s))


def tokenize_lines(text: str) -> Iterator[tuple[int, list[str], list[int]]]:
    """Yield (line number, fields, 1-based field columns) for each line
    that is not blank once its ``#`` comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = list(re.finditer(r"\S+", raw.split("#", 1)[0]))
        if tokens:
            yield lineno, [t.group() for t in tokens], [t.start() + 1 for t in tokens]


def parse_letter(token: str, rank: int, line: int, column: int) -> int:
    """The one generator or inverse letter a file token names; any other
    token is a parse error at the token's line and column."""
    try:
        letters = parse_word(token, rank=rank)
    except ValueError as exc:
        raise ParseError(str(exc), line, column) from exc
    if len(letters) != 1:
        raise ParseError(f"expected one letter, got {token!r}", line, column)
    return letters[0]


def parse_surface(text: str) -> SurfaceSymbol:
    """Parse the plain-text surface format::

        rank 2
        order a b A B

    Blank lines and ``#`` comments are ignored; each keyword appears once.
    """
    rank: int | None = None
    symbol: SurfaceSymbol | None = None
    for lineno, fields, cols in tokenize_lines(text):
        keyword, col = fields[0], cols[0]
        if keyword == "rank":
            if rank is not None:
                raise ParseError("duplicate 'rank' line", lineno, col)
            if len(fields) != 2 or not fields[1].isdigit():
                raise ParseError("expected 'rank <n>'", lineno, col)
            rank = int(fields[1])
            if rank < 1:
                raise ParseError("rank must be at least 1", lineno, cols[1])
        elif keyword == "order":
            if symbol is not None:
                raise ParseError("duplicate 'order' line", lineno, col)
            if rank is None:
                raise ParseError("'order' before 'rank'", lineno, col)
            germs = tuple(
                parse_letter(tok, rank, lineno, tok_col)
                for tok, tok_col in zip(fields[1:], cols[1:])
            )
            try:
                symbol = SurfaceSymbol(rank, germs)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, col) from exc
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, col)
    if symbol is None:
        raise ParseError("file must define 'rank' and 'order'", 1, 1)
    return symbol


__all__ = [
    "ParseError",
    "PreconditionError",
    "SurfaceSymbol",
    "boundary_cycles",
    "classify",
    "germ_positions",
    "is_excluded_surface",
    "is_peripheral",
    "parse_letter",
    "parse_surface",
    "tokenize_lines",
]
