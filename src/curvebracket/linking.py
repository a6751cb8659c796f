"""Crossing combinatorics of taut curve representatives on a fat graph.

Model.  Draw a class x taut on the thickened one-vertex fat graph:
strands run parallel inside bands and all crossings happen inside the
vertex disc.  Lift to the universal cover, an infinite tree with the
same counterclockwise germ order at every vertex.  Each rotation i of x
gives a bi-infinite periodic reduced word, i.e. a line in the tree
aligned so that the vertex visit between letters -1 and 0 sits at the
base vertex.  Two lines force a transversal crossing of the projected
curves exactly when their four ends alternate in the circular order of
tree ends, which is computed from the germ order:

  * ends whose rays leave the base vertex through three distinct germs
    are oriented like those germs in the counterclockwise cyclic order;
  * two rays sharing a first germ are ordered inside their sector by
    walking to the first divergence: after a common prefix ending with
    letter w the arrival germ is -w, and the ray exiting through the
    germ that follows -w sooner counterclockwise comes first.

Counting.  A crossing pair of lines shares a segment in the tree
(possibly a single vertex, possibly traversed by the two lines in
opposite directions) and therefore shows up at one aligned rotation
pair (i, j) per shared vertex.  Each crossing is counted once, at the
unique shared vertex where the first line arrives along an edge the
second line does not use: cell (i, j) is canonical iff

    U[-1] != V[-1]   (rules out interior/far cells of parallel overlap
                      and pairs of identical lines)
    U[-1] != -V[0]   (same for overlap traversed in opposite directions
                      and for a line paired with its own reversal)

where U, V are the bi-infinite words of the two aligned lines.  The
sign of a linked pair is the circular orientation of (U forward end,
V forward end, U backward end); with counterclockwise germ order
(a, b, A, B) on the punctured torus this makes the pair of core curves
a, b linked with sign +1, the calibration pinned in the bracket module.
The pair is linked when V's backward end gets the opposite orientation.

One walk.  V's backward ray at visit j of y is the forward ray of the
inverse word at (l - j) mod l, so both sides of a cell walk a word z
from t along the U line while x[i+k] == z[t+k] and then orient
(-x[i+k-1], x[i+k], z[t+k]).  Rays leaving through different germs are
the walk with k = 0: its triple (-x[i-1], x[i], z[t]) of distinct germs
is a rotation of (U forward, V's ray, U backward), and rotating three
distinct germs keeps their cyclic orientation.
"""

from __future__ import annotations

from functools import lru_cache

from .surface import SurfaceSymbol, germ_positions
from .words import (
    CyclicClass,
    PreconditionError,
    TrivialClassError,
    inverse_word,
    primitive_root,
)


class UnguaranteedPairError(PreconditionError):
    """The input pair is outside the regime where the linked-pair count
    is guaranteed to equal the geometric intersection number."""


def turn_sign(s: SurfaceSymbol, d: int, x: int, y: int) -> int:
    """+1 if (d, x, y) occur counterclockwise in the germ order, else -1."""
    if d == x or d == y or x == y:
        raise ValueError("turn_sign needs three pairwise distinct germs")
    return _orient(germ_positions(s), 2 * s.rank, d, x, y)


def _orient(pos: dict[int, int], n2: int, g1: int, g2: int, g3: int) -> int:
    return 1 if (pos[g2] - pos[g1]) % n2 < (pos[g3] - pos[g1]) % n2 else -1


@lru_cache(maxsize=1 << 18)
def _linked_cells(
    s: SurfaceSymbol, x: tuple[int, ...], y: tuple[int, ...]
) -> tuple[tuple[int, int, int], ...]:
    """All canonical linked cells (i, j, sign) of the rotation grid."""
    pos = germ_positions(s)
    n2 = 2 * s.rank
    m, l = len(x), len(y)
    cap = m + l + 1  # Fine-Wilf: distinct periodic rays diverge before this
    # periodic extensions long enough that no walk index wraps around
    xx = x * (2 + cap // m)
    yy = y * (2 + cap // l)
    zz = inverse_word(y) * (2 + cap // l)
    cells = []
    for i in range(m):
        u_prev, u0 = x[i - 1], x[i]
        for j in range(l):
            if u_prev == y[j - 1] or u_prev == -y[j]:
                continue  # not the canonical cell for this pair of lines
            # V's forward ray, then its backward ray: the inverse word's
            # forward ray at l - j; each walked along the U line
            total = 0
            for z, t in ((yy, j), (zz, l - j)):
                back, u, v, k = -u_prev, u0, z[t], 0
                while u == v:
                    k += 1
                    if k > cap:
                        raise AssertionError("rays failed to diverge")
                    back, u, v = -u, xx[i + k], z[t + k]
                sign = _orient(pos, n2, back, u, v)
                total += sign
            if not total:  # the sides differ, so the forward sign is -sign
                cells.append((i, j, -sign))
    return tuple(cells)


def linked_pairs(
    s: SurfaceSymbol, x: CyclicClass, y: CyclicClass
) -> tuple[tuple[int, int, int], ...]:
    """All linked pairs (i, j, sign) of x and y, ordered by (i, j): the
    strand of x aligned at vertex visit i crosses the strand of y
    aligned at visit j with the given sign.

    Every forced crossing of taut representatives appears exactly once.
    Pairs of equal or mutually inverse strands never link (parallel taut
    copies are drawn disjoint).  This is the one way into the cached
    crossing kernel.
    """
    if x.is_trivial or y.is_trivial:
        raise TrivialClassError("linked pairs need non-trivial classes")
    return _linked_cells(s, x.letters, y.letters)


def unguaranteed_reason(x: CyclicClass, y: CyclicClass) -> str | None:
    """Why the linked-pair count of x and y is not guaranteed to be their
    geometric intersection number, or None inside the guaranteed regime:
    both classes non-trivial and primitive, with distinct primitive roots."""
    if x.is_trivial or y.is_trivial:
        return "the trivial class has no intersection number"
    (root_x, mult_x), (root_y, mult_y) = primitive_root(x), primitive_root(y)
    if mult_x != 1 or mult_y != 1:
        return (
            "intersection_number is only guaranteed for primitive classes; "
            "use linked_pairs for the raw count"
        )
    if root_x == root_y:
        return "intersection_number is only guaranteed for distinct primitive roots"
    return None


def intersection_number(s: SurfaceSymbol, x: CyclicClass, y: CyclicClass) -> int:
    """Geometric intersection number of two primitive classes with
    distinct primitive roots; the linked-pair count."""
    if x.is_trivial or y.is_trivial:
        raise TrivialClassError("intersection number needs non-trivial classes")
    reason = unguaranteed_reason(x, y)
    if reason is not None:
        raise UnguaranteedPairError(reason)
    return len(linked_pairs(s, x, y))


def self_intersection(s: SurfaceSymbol, x: CyclicClass) -> int:
    """Self-intersection number of a primitive class: linked pairs of x
    with itself, one per unordered pair of occurrences."""
    if x.is_trivial:
        raise TrivialClassError("self-intersection needs a non-trivial class")
    _, mult = primitive_root(x)
    if mult != 1:
        raise UnguaranteedPairError("self_intersection requires a primitive class")
    cells = linked_pairs(s, x, x)
    if len(cells) % 2:
        raise AssertionError("self linked cells must pair up")
    return len(cells) // 2


__all__ = [
    "UnguaranteedPairError",
    "intersection_number",
    "linked_pairs",
    "self_intersection",
    "turn_sign",
    "unguaranteed_reason",
]
