"""Independent oracles used by the test suite.

The slope oracles deliberately avoid the library's crossing machinery:
the slope oracle is the determinant formula for curves on the torus,
and the slope words are built by the digital-line (Christoffel)
construction.  The class enumeration reference collects least
rotations in a set and sorts them, kept to check the library's single
pass in enumeration order against.  The amalgam reference is the
original restart-until-stable normal-form loop, kept to check the library's
single stack pass against; the brute-force conjugator search on top of
it normalises every raw conjugator spelling q + w + q^-1 in full, and
is kept to check the library's seam search over a table of reduced
conjugators.  The crossing reference is the original
linked-cell kernel, with one divergence walk per side of a cell, kept
to check the library's single walk against; it shares only the
orientation test.
"""

import math

from curvebracket.amalgam import (
    FACTOR_A,
    FactorElement,
    _alternating,
    _factor_words,
    is_factor_peripheral,
)
from curvebracket.linking import _orient
from curvebracket.surface import germ_positions
from curvebracket.words import (
    CyclicClass,
    canonical_cyclic,
    enumerate_reduced_words,
    inverse_word,
    min_rotation,
    reduce,
)


def slope_intersection(p: int, q: int, r: int, s: int) -> int:
    """Intersection number of torus curves with the given slopes."""
    return abs(p * s - q * r)


def slope_word(p: int, q: int) -> CyclicClass:
    """The simple class of slope (p, q) on the once-punctured torus,
    gcd(p, q) = 1, as a digital-line word in the two generators."""
    if math.gcd(p, q) != 1:
        raise ValueError("slope entries must be coprime")
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    aq = abs(q)
    n = p + aq
    b_letter = 2 if q > 0 else -2
    letters = tuple(
        b_letter if ((k + 1) * aq) // n != (k * aq) // n else 1 for k in range(n)
    )
    return canonical_cyclic(letters)


def coprime_pairs(bound: int):
    """All coprime (p, q) with entries in [-bound, bound], minus (0, 0)."""
    return [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if (p, q) != (0, 0) and math.gcd(p, q) == 1
    ]


def reference_enumerate_cyclic_classes(rank, max_len):
    """Every non-trivial canonical class of length <= max_len: the least
    rotations of all cyclically reduced words, deduplicated in a set and
    sorted."""
    seen = set()
    for w in enumerate_reduced_words(rank, max_len):
        if w and w[0] != -w[-1]:
            seen.add(min_rotation(w))
    return sorted((CyclicClass(w) for w in seen), key=CyclicClass.sort_key)


def _syllable_c_power(p, tag, w):
    # assumes w already reduced; avoids FactorElement validation in hot loops
    if not w:
        return 0
    c = p.c_a if tag == FACTOR_A else p.c_b
    q, r = divmod(len(w), len(c))
    if r:
        return None
    if w == c * q:
        return q
    if w == inverse_word(c) * q:
        return -q
    return None


def reference_normalize_syllables(p, syllables):
    """Merge same-factor neighbours, drop trivial syllables, and push
    powers of the edge generator into the other factor until stable."""
    out = list(syllables)
    changed = True
    while changed:
        changed = False
        merged = []
        for tag, w in out:
            w = reduce(w)
            if not w:
                changed = True
                continue
            if merged and merged[-1][0] == tag:
                merged[-1] = (tag, reduce(merged[-1][1] + w))
                changed = True
            else:
                merged.append((tag, w))
        while merged and not merged[-1][1]:
            merged.pop()
            changed = True
        out = [(tag, w) for tag, w in merged if w]
        if len(out) < len(merged):
            changed = True
        if len(out) <= 1:
            break
        for idx, (tag, w) in enumerate(out):
            k = _syllable_c_power(p, tag, w)
            if k is not None:
                other = p.other(tag)
                c_other = p.amalgam_word(other)
                moved = reduce(c_other * k) if k >= 0 else reduce(inverse_word(c_other) * (-k))
                out[idx] = (other, moved)
                changed = True
                break
    return out


def reference_cyclic_normalize_syllables(p, syllables):
    out = reference_normalize_syllables(p, syllables)
    while len(out) >= 2 and out[0][0] == out[-1][0]:
        out = reference_normalize_syllables(p, [out[-1]] + out[:-1])
    return out


def _reference_factor_of(p, form):
    # A conjugate of a power of c lies in both factors; the reference
    # loop leaves it in a factor that depends on the spelling, so it is
    # reported as factor A, the library's convention.
    if len(form) >= 2:
        return None
    if not form or is_factor_peripheral(p, FactorElement(*form[0])):
        return FACTOR_A
    return form[0][0]


def reference_conjugate_into_factor(p, syllables):
    """conjugate_into_factor on the reference loop's cyclic form."""
    return _reference_factor_of(p, reference_cyclic_normalize_syllables(p, syllables))


def reference_brute_force_conjugate_into_factor(p, syllables, max_syllables=2, max_letters=2):
    """brute_force_conjugate_into_factor as a per-call search: every raw
    alternating conjugator q, and the reference loop on q + w + q^-1."""
    base = reference_normalize_syllables(p, syllables)
    if len(base) <= 1:
        return _reference_factor_of(p, base)
    factor_words = _factor_words(p, max_letters)
    for count in range(1, max_syllables + 1):
        for conj in _alternating(p, factor_words, count):
            back = [(tag, inverse_word(w)) for tag, w in reversed(conj)]
            result = reference_normalize_syllables(p, conj + base + back)
            if len(result) <= 1:
                return _reference_factor_of(p, result)
    return None


def reference_linked_cells(s, x, y):
    """All canonical linked cells (i, j, sign) of the rotation grid, with
    a separate divergence walk for each of V's two rays."""
    pos = germ_positions(s)
    n2 = 2 * s.rank
    m, l = len(x), len(y)
    cap = m + l + 1  # Fine-Wilf: distinct periodic rays diverge before this
    cells = []
    for i in range(m):
        u_prev = x[i - 1]
        u0 = x[i]
        for j in range(l):
            v_prev = y[j - 1]
            v0 = y[j]
            if u_prev == v_prev or u_prev == -v0:
                continue  # not the canonical cell for this pair of lines

            # forward side: V's forward ray against the U line
            if u0 == v0:
                k = 1
                while x[(i + k) % m] == y[(j + k) % l]:
                    k += 1
                    if k > cap:
                        raise AssertionError("rays failed to diverge")
                s1 = _orient(pos, n2, -x[(i + k - 1) % m], x[(i + k) % m], y[(j + k) % l])
            else:
                s1 = _orient(pos, n2, u0, v0, -u_prev)

            # backward side: V's backward ray against the U line
            if u0 == -v_prev:
                k = 1
                while x[(i + k) % m] == -y[(j - 1 - k) % l]:
                    k += 1
                    if k > cap:
                        raise AssertionError("rays failed to diverge")
                s2 = _orient(pos, n2, -x[(i + k - 1) % m], x[(i + k) % m], -y[(j - 1 - k) % l])
            else:
                s2 = _orient(pos, n2, u0, -v_prev, -u_prev)

            if s1 != s2:
                cells.append((i, j, s1))
    return tuple(cells)
