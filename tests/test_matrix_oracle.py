"""Hyperbolic cross-check of the crossing predicate on the punctured torus.

The group generated by [[1,1],[1,2]] and [[1,-1],[-1,2]] is a discrete
free group of rank two whose quotient surface is a once-punctured torus
(the commutator has trace -2).  A rotation pair of two classes is a
crossing exactly when the axes of the corresponding group elements
cross, i.e. when their fixed-point pairs interleave on the boundary
circle.  This re-derives linkedness with no shared code.
"""

import itertools
import math

from curvebracket.linking import linked_pairs
from curvebracket.words import enumerate_cyclic_classes, rotation

from conftest import cls

GEN = {
    1: ((1.0, 1.0), (1.0, 2.0)),
    -1: ((2.0, -1.0), (-1.0, 1.0)),
    2: ((1.0, -1.0), (-1.0, 2.0)),
    -2: ((2.0, 1.0), (1.0, 1.0)),
}


def mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def word_matrix(letters):
    m = ((1.0, 0.0), (0.0, 1.0))
    for l in letters:
        m = mat_mul(m, GEN[l])
    return m


def axis_endpoints(letters):
    """Fixed points on the boundary of the hyperbolic plane."""
    (a, b), (c, d) = word_matrix(letters)
    # cz^2 + (d - a)z - b = 0
    disc = (d - a) ** 2 + 4.0 * b * c
    assert disc > 1e-9, "element unexpectedly not hyperbolic"
    assert abs(c) > 1e-12, "axis through infinity; conjugate the test group"
    r = math.sqrt(disc)
    return ((a - d + r) / (2.0 * c), (a - d - r) / (2.0 * c))


def axes_cross(u_letters, v_letters):
    p1, p2 = axis_endpoints(u_letters)
    q1, q2 = axis_endpoints(v_letters)
    # interleaving on the circle: negative cross-ratio
    value = ((p1 - q1) * (p2 - q2)) / ((p1 - q2) * (p2 - q1))
    assert abs(value) > 1e-9
    return value < 0


def canonical_cell(x, i, y, j):
    u_prev, v_prev, v0 = x[i - 1], y[j - 1], y[j]
    return u_prev != v_prev and u_prev != -v0


def test_linked_cells_match_axis_crossings(torus):
    classes = [c for c in enumerate_cyclic_classes(2, 3)]
    sample = [
        (x, y)
        for x, y in itertools.product(classes, classes)
        if len(x) + len(y) <= 5
    ]
    checked = 0
    for x, y in sample:
        cells = {(i, j) for i, j, _ in linked_pairs(torus, x, y)}
        for i in range(len(x)):
            for j in range(len(y)):
                if not canonical_cell(x.letters, i, y.letters, j):
                    continue
                expected = axes_cross(rotation(x, i), rotation(y, j))
                assert ((i, j) in cells) == expected, (x, y, i, j)
                checked += 1
    assert checked == 920  # every canonical cell in the sample was compared


def test_crossing_counts_match_known_values(torus):
    # the determinant bound |ps - qr| realized by the matrix picture for
    # a couple of concrete pairs, recomputed here purely hyperbolically
    assert axes_cross((1,), (2,))
    assert not axes_cross((1, 2), (2, 1))  # conjugate elements, disjoint axes
    assert len(linked_pairs(torus, cls("ab"), cls("ab"))) == 0
