"""Reference constructions the tests compare the library against.

None of them is needed by the library itself.  The evaluation helpers and
the Gaussian elimination below use plain Fraction arithmetic only, so they
check the group-ring kernel without running through it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from l2burau.freegroup import Basis, FreeWord
from l2burau.groupring import (
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    kappa,
)


def kappa_of_terms(
    terms: Mapping[FreeWord, Fraction | int], family, n: int, basis: Basis = Basis.G
) -> GroupRingElement:
    """Linear extension of kappa to {free word: rational} sums."""
    out = GroupRingElement.zero(family.target(n))
    for w, c in terms.items():
        out = out + kappa(w, family, n, basis, coeff=c)
    return out


def block_assemble(blocks: Sequence[Sequence[GroupRingMatrix]]) -> GroupRingMatrix:
    """Assemble a block grid; block shapes must tile consistently."""
    group = blocks[0][0].group
    rows: list[list[GroupRingElement]] = []
    for brow in blocks:
        height = brow[0].rows
        if any(b.rows != height for b in brow):
            raise ValueError("inconsistent block heights")
        for r in range(height):
            rows.append([e for b in brow for e in b.entries[r]])
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("inconsistent block widths")
    return GroupRingMatrix(group, rows)


def evaluate(e: GroupRingElement, z: Sequence[Fraction], t: Fraction) -> Fraction:
    """e at the rational point (z, t): z holds one value per coordinate of
    Z^d (one value for Z)."""
    total = Fraction(0)
    for g, tp in e.terms.items():
        coords = (g,) if isinstance(e.group, Integers) else g
        zg = Fraction(1)
        for zi, gi in zip(z, coords):
            zg *= zi**gi
        for k, c in tp.coeffs.items():
            total += c * zg * t**k
    return total


def gaussian_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a square Fraction matrix by elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def det_at(M: GroupRingMatrix, z: Sequence[Fraction], t: Fraction) -> Fraction:
    """det(M) at (z, t), from the evaluated entries, without the kernel."""
    if not isinstance(M.group, (Integers, FreeAbelian)):
        raise ValueError("evaluation needs a commutative coefficient group")
    return gaussian_det([[evaluate(e, z, t) for e in row] for row in M.entries])
