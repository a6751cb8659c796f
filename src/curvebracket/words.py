"""Free-group words and canonical cyclic (conjugacy class) forms.

A letter is a nonzero integer: ``+k`` is the k-th generator, ``-k`` its
inverse.  Words are tuples of letters.  Text syntax maps ``a``..``z``
to ``1``..``26`` and ``A``..``Z`` to ``-1``..``-26``, so ``"aBc"`` is
``(1, -2, 3)`` and the empty string is the trivial word.

A conjugacy class of the free group (equivalently a free homotopy class
of loops on a surface whose fundamental group it is) is represented by
a ``CyclicClass``: the cyclically reduced word, stored at the rotation
that is lexicographically least under the letter order

    a < A < b < B < c < C < ...

i.e. each generator immediately precedes its own inverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


MAX_NAMED_RANK = 26


class PreconditionError(ValueError):
    """An operation was invoked outside its supported regime."""


class TrivialClassError(PreconditionError):
    """The trivial class was passed where a non-trivial one is required."""


def letter_key(letter: int) -> int:
    """Sort key realising the order a < A < b < B < ...

    >>> sorted((1, -1, 2, -2), key=letter_key)
    [1, -1, 2, -2]
    """
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def word_key(letters) -> tuple:
    return tuple(letter_key(l) for l in letters)


def parse_word(text: str, rank: int | None = None) -> tuple[int, ...]:
    """Parse the lowercase/uppercase letter syntax into a word.

    >>> parse_word("aBc")
    (1, -2, 3)
    >>> parse_word("")
    ()
    """
    letters = []
    for pos, ch in enumerate(text):
        if "a" <= ch <= "z":
            letter = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            letter = -(ord(ch) - ord("A") + 1)
        else:
            raise ValueError(f"bad letter {ch!r} at position {pos}")
        if rank is not None and abs(letter) > rank:
            raise ValueError(f"letter {ch!r} exceeds rank {rank}")
        letters.append(letter)
    return tuple(letters)


def format_word(letters) -> str:
    """Inverse of parse_word; the trivial word prints as ''.

    >>> format_word((1, -2, 3))
    'aBc'
    """
    out = []
    for l in letters:
        if abs(l) > MAX_NAMED_RANK:
            raise ValueError(f"letter {l} has no single-character name")
        out.append(chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1))
    return "".join(out)


def reduce(word) -> tuple[int, ...]:
    """Free reduction: cancel adjacent letter/inverse pairs.

    Idempotent; returns the unique reduced word equal to the input.

    >>> reduce((1, 2, -2, 1))
    (1, 1)
    >>> reduce((1, -1))
    ()
    """
    stack: list[int] = []
    for l in word:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def inverse_word(word) -> tuple[int, ...]:
    return tuple(-l for l in reversed(word))


def cyclic_reduce(word) -> tuple[int, ...]:
    """Reduce, then cancel first-against-last until stable."""
    w = list(reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def min_rotation(word) -> tuple[int, ...]:
    """Lexicographically least rotation under the fixed letter order."""
    if not word:
        return ()
    n = len(word)
    doubled = word + word
    return tuple(min((doubled[i:i + n] for i in range(n)), key=word_key))


@dataclass(frozen=True)
class CyclicClass:
    """Canonical cyclically reduced cyclic word; a conjugacy class.

    The empty tuple is the trivial class.  Build values through
    ``canonical_cyclic``; the constructor trusts its input.
    """

    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self.letters)

    def __repr__(self) -> str:
        return f"CyclicClass({format_word(self.letters)!r})"

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def sort_key(self) -> tuple:
        return (len(self.letters), word_key(self.letters))


def canonical_cyclic(word) -> CyclicClass:
    """Cyclically reduce, then pick the canonical rotation.

    >>> canonical_cyclic(parse_word("ba"))
    CyclicClass('ab')
    >>> canonical_cyclic(parse_word("abA"))
    CyclicClass('b')
    >>> canonical_cyclic(parse_word("ABab"))
    CyclicClass('abAB')
    """
    return CyclicClass(min_rotation(cyclic_reduce(word)))


def inverse(x: CyclicClass) -> CyclicClass:
    """Class of the reversed, letter-inverted word.

    >>> inverse(canonical_cyclic(parse_word("ab")))
    CyclicClass('AB')
    """
    return canonical_cyclic(inverse_word(x.letters))


def primitive_root(x: CyclicClass) -> tuple[CyclicClass, int]:
    """Return (r, k) with x = r**k, r not a proper power, k maximal.

    >>> primitive_root(canonical_cyclic(parse_word("abab")))
    (CyclicClass('ab'), 2)
    """
    if x.is_trivial:
        raise TrivialClassError("the trivial class has no primitive root")
    w = x.letters
    n = len(w)
    for d in range(1, n + 1):
        if n % d:
            continue
        if all(w[i] == w[(i + d) % n] for i in range(n)):
            # the root of a least rotation is least and cyclically reduced
            return CyclicClass(w[:d]), n // d
    raise AssertionError("unreachable: every word has period len(word)")


def is_power_of(x: CyclicClass, c: CyclicClass) -> bool:
    """Whether the non-trivial class x is c**k for some k != 0: the
    primitive roots agree up to inversion and c's multiplicity divides
    x's.

    >>> is_power_of(canonical_cyclic(parse_word("BBBB")), canonical_cyclic(parse_word("bb")))
    True
    >>> is_power_of(canonical_cyclic(parse_word("b")), canonical_cyclic(parse_word("bb")))
    False
    """
    root_x, mult_x = primitive_root(x)
    root_c, mult_c = primitive_root(c)
    return mult_x % mult_c == 0 and (root_x == root_c or root_x == inverse(root_c))


def class_power(x: CyclicClass, k: int) -> CyclicClass:
    """The class of x**k (k >= 0).  Powers of a canonical word stay
    canonical, so this is plain repetition.

    >>> class_power(canonical_cyclic(parse_word("ab")), 3)
    CyclicClass('ababab')
    """
    if k < 0:
        raise ValueError("negative powers need inverse() first")
    return CyclicClass(x.letters * k)


def rotation(x: CyclicClass, i: int) -> tuple[int, ...]:
    """The underlying word rotated to start at index i."""
    w = x.letters
    if not w:
        return ()
    i %= len(w)
    return w[i:] + w[:i]


def enumerate_reduced_words(rank: int, max_len: int):
    """All freely reduced words of length <= max_len, shortest first.

    Includes the empty word.  Deterministic order: by length, then by
    the canonical letter order.
    """
    alphabet = sorted(
        itertools.chain(range(1, rank + 1), range(-1, -rank - 1, -1)),
        key=letter_key,
    )
    level: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in level:
            for l in alphabet:
                if w and w[-1] == -l:
                    continue
                nxt.append(w + (l,))
        yield from nxt
        level = nxt


def enumerate_cyclic_classes(rank: int, max_len: int) -> list[CyclicClass]:
    """All non-trivial canonical classes of length <= max_len, sorted.

    enumerate_reduced_words already runs in CyclicClass.sort_key order,
    so each class is kept as the one cyclically reduced word that is its
    own least rotation, where it comes up.
    """
    if max_len < 1:
        raise PreconditionError("length bound must be at least 1")
    return [
        CyclicClass(w)
        for w in enumerate_reduced_words(rank, max_len)
        if w and w[0] != -w[-1] and min_rotation(w) == w
    ]
