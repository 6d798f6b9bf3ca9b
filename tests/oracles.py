"""Reference constructions and proof-level checks the tests compare the
library against.

None of them is needed by the library itself.

* Kernel-free group-ring algebra: the element product ``mul``, the
  matrix product ``matmul`` (with ``opposite`` for the composition of
  Burau matrices in display layout), ``adjoint``, ``scale``, ``zeros``
  and the one-letter Burau matrix ``generator_matrix``.  The products run
  ``groupring._flat_addmul`` on (group element, t exponent) pair keys,
  never ``groupring._kernel``, so the fold and the Laplace expansion are
  checked against an independent product.
* Reference constructions: the Fox derivative of a word
  (``fox_derivative_terms``, ``fox_derivative``), the exponent sum of a
  braid, the t-twisting map ``kappa``, the augmentation and von Neumann
  trace of elements and matrices (``augmentation``, ``vn_trace``), the
  Fox jacobian (``jacobian_matrix``, ``unreduced_burau``), block
  assembly, exact evaluation and Gaussian elimination (``evaluate``,
  ``gaussian_det``, ``det_at``), and the classical reduced Burau matrix
  over phi at a rational point, multiplied out letter by letter
  (``phi_burau_at``).  ``coefficients_at`` substitutes t = t0
  into an element, and ``minus_identity_matrix`` decodes the flat rows of
  E = Burau - Id that the series and eps backends read.
  ``rescan_fold_subgroup_basis`` is the Stallings fold that restarts its
  edge scan after every merge, kept as the reference for the one-pass
  worklist fold of ``fkdet.fold_subgroup_basis``, and
  ``fraction_squarefree_parts`` is Yun's algorithm over Fractions, kept
  as the reference for the integer one of ``fkdet._squarefree_parts``.
  ``fixed_point_roots`` finds the roots of a square-free polynomial by
  Durand-Kerner iteration in Python ints, and ``oracle_mahler`` reads
  M(P(t .)) from them to 40 digits: the reference for the roots backend,
  with no numpy root finder and no ``fkdet.UnivariateRoots``.  The Fox
  jacobian, the evaluation helpers and the Gaussian elimination use plain
  dict and Fraction arithmetic only, so they check the group-ring kernel
  and the Burau fold without running through them.
* The Markov-compatibility maps of the paper's proof, which no library
  path reads: ``chi_map(family, alpha)`` (conjugation, Q o h_alpha ==
  chi o Q) and ``sigma(family, elem, n)`` (stabilization, Q_{n+1} o iota
  == sigma o Q_n), and ``family_apply``, a family on a word in either
  basis (the library's families read g-basis words only).
* Proof-level checks of the paper's identities:
  ``check_admissibility`` (a family's two Markov-compatibility squares on
  every free generator, reported as an ``AdmissibilityReport``), and,
  composing the library's Burau matrices with ``matmul``,
  ``verify_block_triangularization`` (the stabilization bookkeeping
  behind the second Markov move) and ``conjugation_identity_check`` (the
  matrix identity behind the first), with their reports
  ``BlockTriangReport`` and ``ConjugationReport``.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Mapping, Sequence

from l2burau import braid as braidmod
from l2burau.braid import BraidWord
from l2burau.epifamilies import AbelianImage, Identity, TotalWinding
from l2burau.fkdet import _derivative, _squarefree_parts, _trimmed, det_integers, roots_estimate
from l2burau.freegroup import (
    Basis,
    FreeWord,
    _fox_walk,
    artin_act,
    change_of_basis,
    winding,
    word,
)
from l2burau.groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    RationalLike,
    TPoly,
    _at,
    _flat,
    _flat_add,
    _flat_addmul,
    _unflat,
)
from l2burau.torsion import BurauMatrix, _minus_identity, _symbolic_det, reduced_burau


# --- kernel-free group-ring algebra ---------------------------------------------


def _pair_mul(group):
    gmul = group.mul
    return lambda a, b: (gmul(a[0], b[0]), a[1] + b[1])


def mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """a * b, every term product taken left to right."""
    out: dict = {}
    _flat_addmul(out, _flat(a), _flat(b), _pair_mul(a.group))
    return _unflat(a.group, out)


def matmul(A: GroupRingMatrix, B: GroupRingMatrix, opposite: bool = False) -> GroupRingMatrix:
    """Entry (i, k) is the sum over j of A[i][j] B[j][k], or of B[j][k]
    A[i][j] when ``opposite``: the composition of Burau matrices."""
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch {A.shape} x {B.shape}")
    pair_mul = _pair_mul(A.group)
    a = [[_flat(e) for e in row] for row in A.entries]
    b = [[_flat(e) for e in row] for row in B.entries]
    out = []
    for i in range(A.rows):
        row = []
        for k in range(B.cols):
            acc: dict = {}
            for j in range(A.cols):
                x, y = (b[j][k], a[i][j]) if opposite else (a[i][j], b[j][k])
                _flat_addmul(acc, x, y, pair_mul)
            row.append(_unflat(A.group, acc))
        out.append(row)
    return GroupRingMatrix(A.group, out)


def adjoint(x):
    """c(t) g -> c(t) g^-1 on an element; the transpose with entry-wise
    adjoints on a matrix, so adjoint(A B) == adjoint(B) adjoint(A)."""
    if isinstance(x, GroupRingMatrix):
        return GroupRingMatrix(x.group, [[adjoint(e) for e in col] for col in zip(*x.entries)])
    return GroupRingElement(x.group, {x.group.inv(g): c for g, c in x.terms.items()})


def scale(x, c: RationalLike):
    """Every coefficient of an element or a matrix times the rational c."""
    if isinstance(x, GroupRingMatrix):
        return GroupRingMatrix(x.group, [[scale(e, c) for e in row] for row in x.entries])
    return GroupRingElement(
        x.group, {g: TPoly({k: v * c for k, v in tp.coeffs.items()}) for g, tp in x.terms.items()}
    )


def zeros(group, rows: int, cols: int) -> GroupRingMatrix:
    return GroupRingMatrix(group, [[GroupRingElement.zero(group)] * cols for _ in range(rows)])


def generator_matrix(n: int, i: int, sign: int, family) -> GroupRingMatrix:
    """The (n-1) x (n-1) Burau matrix of the Artin generator sigma_i^sign."""
    return reduced_burau(braidmod.braid_word([sign * i], n), family).matrix


# --- reference constructions ------------------------------------------------------


def exponent_sum(a: BraidWord) -> int:
    """Sum of letter signs (the writhe of the closed diagram)."""
    return sum(1 if x > 0 else -1 for x in a.letters)


def fox_derivative_terms(u: FreeWord, i: int) -> dict[FreeWord, int]:
    """The i-th Fox derivative of a word as {group element: integer} terms."""
    if not 1 <= i <= u.rank:
        raise ValueError(f"derivative index {i} out of range for rank {u.rank}")
    terms: dict[FreeWord, int] = {}
    for g, prefix, step in _fox_walk(u):
        if g == i:
            terms[prefix] = terms.get(prefix, 0) + step
    return {k: c for k, c in terms.items() if c}


def fox_derivative(u: FreeWord, i: int) -> GroupRingElement:
    """Fox derivative packaged as a group-ring element over Free(rank)."""
    return GroupRingElement(
        Free(u.rank),
        {k: TPoly({0: c}) for k, c in fox_derivative_terms(u, i).items()},
    )


def family_apply(family, w: FreeWord, n: int, basis: Basis = Basis.X):
    """family(w) for a word in either basis: the word is rewritten in the
    g-basis the family reads, and an image word comes back in the basis
    w came in."""
    out = family.apply(change_of_basis(w, basis, Basis.G), n)
    return change_of_basis(out, Basis.G, basis) if isinstance(out, FreeWord) else out


def kappa(
    w: FreeWord,
    family,
    n: int,
    basis: Basis = Basis.G,
    coeff: RationalLike = 1,
) -> GroupRingElement:
    """Send a free word to coeff * t^winding(w) * family(w).

    ``family`` is any epimorphism family object exposing ``target(n)`` and
    ``apply(word, n)`` on g-basis words (:func:`family_apply`); the winding
    exponent is computed from the word in its own basis (x-letters weigh
    1, g-letters weigh their index).
    """
    elem = family_apply(family, w, n, basis)
    return GroupRingElement(family.target(n), {elem: TPoly({winding(w, basis): coeff})})


def augmentation(e: GroupRingElement) -> TPoly:
    """The sum of all coefficients."""
    out: dict = {}
    for c in e.terms.values():
        _flat_add(out, c.coeffs)
    return TPoly(out)


def vn_trace(x) -> TPoly:
    """Von Neumann trace of an element (the coefficient of the identity
    element) or of a square matrix (the sum over its diagonal)."""
    if isinstance(x, GroupRingMatrix):
        if x.rows != x.cols:
            raise ValueError("trace needs a square matrix")
        out: dict = {}
        for i in range(x.rows):
            _flat_add(out, vn_trace(x.entries[i][i]).coeffs)
        return TPoly(out)
    for g, c in x.terms.items():
        if x.group.is_identity(g):
            return c
    return TPoly()


def kappa_of_terms(
    terms: Mapping[FreeWord, Fraction | int], family, n: int, basis: Basis = Basis.G
) -> GroupRingElement:
    """Linear extension of kappa to {free word: rational} sums."""
    out = GroupRingElement.zero(family.target(n))
    for w, c in terms.items():
        out = out._plus(kappa(w, family, n, basis, coeff=c), 1)
    return out


def _generator_images(family, n: int, basis: Basis):
    """Target images of the basis generators and their inverses."""
    imgs, invs = [None], [None]  # 1-indexed
    for g in range(1, n + 1):
        w = FreeWord.gen(n, g)
        imgs.append(family_apply(family, w, n, basis))
        invs.append(family_apply(family, w.inverse(), n, basis))
    return imgs, invs


def _fox_kappa_column(image: FreeWord, family, n: int, basis: Basis, nrows: int, imgs, invs):
    """kappa of all Fox derivatives of one image word, in a single pass.

    Walks the word once, keeping the running prefix already mapped into
    the target group and its t-exponent, and adds one term
    (prefix, t-exponent) per letter to the row of its generator.
    """
    grp = family.target(n)
    acc: list[dict] = [{} for _ in range(nrows + 1)]  # 1-indexed rows
    prefix = grp.identity()
    tpow = 0
    for g, s in image.letters():
        weight = 1 if basis is Basis.X else g
        if s < 0:
            prefix = grp.mul(prefix, invs[g])
            tpow -= weight
        if g <= nrows:
            coeffs = acc[g].setdefault(prefix, {})
            coeffs[tpow] = coeffs.get(tpow, 0) + s
        if s > 0:
            prefix = grp.mul(prefix, imgs[g])
            tpow += weight
    return [GroupRingElement(grp, {p: TPoly(cs) for p, cs in d.items()}) for d in acc[1:]]


def jacobian_matrix(beta: BraidWord, family, basis: Basis, nrows: int) -> GroupRingMatrix:
    """The Fox jacobian of beta pushed through kappa, in display layout:
    entry (i, j) = kappa(d h(b_j) / d b_i) for the generators b of basis."""
    n = beta.strands
    grp = family.target(n)
    imgs, invs = _generator_images(family, n, basis)
    cols = []
    for j in range(1, nrows + 1):
        image = artin_act(beta, FreeWord.gen(n, j), basis)
        cols.append(_fox_kappa_column(image, family, n, basis, nrows, imgs, invs))
    entries = [[cols[j][i] for j in range(nrows)] for i in range(nrows)]
    return GroupRingMatrix(grp, entries)


def unreduced_burau(beta: BraidWord, family) -> BurauMatrix:
    """The n x n Fox jacobian in the puncture-loop basis."""
    mat = jacobian_matrix(beta, family, Basis.X, beta.strands)
    return BurauMatrix(mat, family, beta, Basis.X)


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


def coefficients_at(e: GroupRingElement, t0: RationalLike) -> dict:
    """{group element: Fraction} of e after substituting t = t0."""
    return _at(_flat(e), t0)


def minus_identity_matrix(beta: BraidWord, family) -> GroupRingMatrix:
    """E = Burau(beta) - Id as a matrix: the flat rows the backends read, decoded."""
    grp = family.target(beta.strands)
    rows = _minus_identity(beta, family)
    return GroupRingMatrix(grp, [[_unflat(grp, d) for d in row] for row in rows])


def rescan_fold_subgroup_basis(words: Sequence[FreeWord]) -> tuple[int, list[FreeWord]]:
    """Reference for ``fkdet.fold_subgroup_basis``: the same rewrite, folded
    by a full rescan of every edge after each single merge.

    Builds a bouquet of loops labeled by the words, folds it into an
    immersion, extracts a spanning tree, and reads each word off as a
    product of the non-tree (basis) edges along its path.  Returns
    (rank, rewritten words); the rank is 1 when the subgroup is trivial
    so callers always get a usable ambient group.
    """
    edges: list[tuple[int, int, int]] = []  # (u, g, v): u --g--> v, g > 0
    n_vertices = 1
    for w in words:
        cur = 0
        letters = list(w.letters())
        for idx, (g, s) in enumerate(letters):
            nxt = 0 if idx == len(letters) - 1 else n_vertices
            if nxt != 0:
                n_vertices += 1
            edges.append((cur, g, nxt) if s > 0 else (nxt, g, cur))
            cur = nxt

    parent = list(range(n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # fold: no vertex may carry two distinct out-edges (or in-edges) with
    # one label; rescan after every merge since earlier bookkeeping staled
    changed = True
    while changed:
        changed = False
        out_seen: dict[tuple[int, int], int] = {}
        in_seen: dict[tuple[int, int], int] = {}
        for u, g, v in edges:
            u, v = find(u), find(v)
            prev = out_seen.get((u, g))
            if prev is not None and prev != v:
                parent[find(v)] = find(prev)
                changed = True
                break
            out_seen[(u, g)] = v
            prev = in_seen.get((v, g))
            if prev is not None and prev != u:
                parent[find(u)] = find(prev)
                changed = True
                break
            in_seen[(v, g)] = u

    fedges = {(find(u), g, find(v)) for (u, g, v) in edges}
    adj: dict[int, dict[int, int]] = {}
    for u, g, v in fedges:
        adj.setdefault(u, {})[g] = v
        adj.setdefault(v, {})[-g] = u

    base = find(0)
    tree_edges: set[tuple[int, int, int]] = set()
    visited = {base}
    order = [base]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for lab in sorted(adj.get(v, {}), key=lambda x: (abs(x), x < 0)):
            t = adj[v][lab]
            if t not in visited:
                visited.add(t)
                order.append(t)
                tree_edges.add((v, lab, t) if lab > 0 else (t, -lab, v))

    basis_index: dict[tuple[int, int, int], int] = {}
    for u, g, v in sorted(fedges):
        if (u, g, v) not in tree_edges:
            basis_index[(u, g, v)] = len(basis_index) + 1

    rank = max(len(basis_index), 1)
    rewritten = []
    for w in words:
        cur = base
        out: list[tuple[int, int]] = []
        for g, s in w.letters():
            nxt = adj[cur][g * s]
            key = (cur, g, nxt) if s > 0 else (nxt, g, cur)
            idx = basis_index.get(key)
            if idx is not None:
                out.append((idx, s))
            cur = nxt
        if cur != base:
            raise AssertionError("folded path fails to close; folding bug")
        rewritten.append(word(rank, out))
    return rank, rewritten


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder over Q of ascending coefficient lists."""
    rem = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        coef = rem[k + len(den) - 1] / den[-1]
        q[k] = coef
        if coef:
            for j, dc in enumerate(den):
                rem[k + j] -= coef * dc
    return q, _trimmed(rem[: len(den) - 1])


def _monic_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def fraction_squarefree_parts(p: list) -> list[tuple[list, int]]:
    """Reference for ``fkdet._squarefree_parts``: Yun's algorithm with every
    gcd a Euclidean remainder sequence over Fractions."""
    p = [Fraction(c) for c in p]
    dp = _derivative(p)
    a = _monic_gcd(p, dp)
    b, c = _poly_divmod(p, a)[0], _poly_divmod(dp, a)[0]
    parts, mult = [], 1
    while len(b) > 1:
        d = _trimmed([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _monic_gcd(b, d)
        if len(a) > 1:
            parts.append((a, mult))
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        mult += 1
    return parts


def fixed_point_roots(p: Sequence, bits: int = 256) -> list[tuple[Fraction, Fraction]]:
    """The roots of a square-free polynomial p (ascending rationals), as
    exact (re, im) pairs on a 2^-bits grid.

    Durand-Kerner (Weierstrass) iteration z_i -= P(z_i) / (lead prod_{j !=
    i} (z_i - z_j)), run in complex floats from the deterministic start
    R (0.4 + 0.9i)^k, R = 2 max |p_k / p_n|^(1 / (n - k)) (Fujiwara's bound
    on the moduli) until 50 sweeps in a row fail to halve the largest step,
    and then in 2^bits-scaled Gaussian integers until a sweep moves no root
    by 2^(-bits/2) and two more sweeps square that.  Raises AssertionError
    when the ints do not settle.
    """
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    a = [int(Fraction(c) * scale) for c in p]
    n, lead = len(a) - 1, a[-1]
    if n < 1:
        return []
    mono = [c / lead for c in a]  # int / int rounds once
    R = 2 * max(abs(c) ** (1 / (n - k)) for k, c in enumerate(mono[:-1]))
    z = [R * (0.4 + 0.9j) ** k for k in range(n)]
    best, stale = math.inf, 0
    while stale < 50:  # until the floats stop halving their steps
        moved = 0.0
        for i, zi in enumerate(z):
            v, q = 0j, 1 + 0j
            for c in reversed(mono):
                v = v * zi + c
            for j, zj in enumerate(z):
                if j != i:
                    q *= zi - zj
            step = v / q if q else 0j
            if cmath.isfinite(step):
                z[i] = zi - step
            moved = max(moved, abs(step) if cmath.isfinite(step) else math.inf)
        if moved <= 1e-13 * R:
            break
        best, stale = (moved, 0) if moved < best / 2 else (best, stale + 1)
    one = 1 << bits
    fixed = [(int(Fraction(w.real) * one), int(Fraction(w.imag) * one)) for w in z]
    settle, tol = 2, 1 << (bits // 2)
    for _ in range(200):
        moved = 0
        for i, (x, y) in enumerate(fixed):
            vr = vi = 0
            for c in reversed(a):
                vr, vi = ((vr * x - vi * y) >> bits) + (c << bits), (vr * y + vi * x) >> bits
            qr, qi = lead << bits, 0
            for j, (u, w) in enumerate(fixed):
                if j != i:
                    dx, dy = x - u, y - w
                    qr, qi = (qr * dx - qi * dy) >> bits, (qr * dy + qi * dx) >> bits
            den = qr * qr + qi * qi
            if not den:
                raise AssertionError("two Durand-Kerner approximations met")
            sr = ((vr * qr + vi * qi) << bits) // den
            si = ((vi * qr - vr * qi) << bits) // den
            fixed[i] = x - sr, y - si
            moved = max(moved, abs(sr) + abs(si))
        if moved < tol:
            settle -= 1
            if not settle:
                return [(Fraction(x, one), Fraction(y, one)) for x, y in fixed]
    raise AssertionError("Durand-Kerner did not settle")


@functools.lru_cache(maxsize=8)
def _squared_moduli(p: tuple[Fraction, ...]) -> list[tuple[Fraction, int]]:
    """(|r|^2, multiplicity) for the roots r of p (ascending), from
    :func:`fixed_point_roots` on each part of its exact square-free split."""
    return [(x * x + y * y, m) for f, m in _squarefree_parts(list(p)) for x, y in fixed_point_roots(f)]


def oracle_mahler(coeffs: Mapping[int, RationalLike], t: RationalLike = 1) -> Decimal:
    """M(P(t .)) = |lead| t^hi prod max(1, |r| / t) over the roots r of the
    Laurent polynomial P = {exponent: coefficient}, to 40 digits, each root
    counted with its multiplicity."""
    p = tuple(Fraction(coeffs.get(k, 0)) for k in range(min(coeffs), max(coeffs) + 1))
    t = Fraction(t)
    with localcontext() as ctx:
        ctx.prec = 50
        dt = Decimal(t.numerator) / t.denominator
        value = abs(Decimal(p[-1].numerator) / p[-1].denominator) * dt ** max(coeffs)
        for r2, m in _squared_moduli(p):
            if r2 > t * t:
                r = Decimal(r2.numerator).sqrt() / Decimal(r2.denominator).sqrt()
                value *= (r / dt) ** m
        return +value


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


def phi_burau_at(beta: BraidWord, s: Fraction) -> list[list[Fraction]]:
    """The reduced Burau matrix of beta over phi at s = z t, as Fractions:
    the product of the classical generator matrices, each the identity
    with column i replaced by (s, -s, 1) for sigma_i and (1, -1/s, 1/s)
    for its inverse, in rows i - 1, i, i + 1."""
    m = beta.strands - 1
    out = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    for letter in beta.letters:
        g = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
        i = abs(letter) - 1
        col = (s, -s, 1) if letter > 0 else (1, -1 / s, 1 / s)
        for r, v in zip((i - 1, i, i + 1), col):
            if 0 <= r < m:
                g[r][i] = Fraction(v)
        out = [[sum(x * y for x, y in zip(row, c)) for c in zip(*g)] for row in out]
    return out


# --- Markov-compatibility maps -----------------------------------------------------


def chi_map(family, alpha: BraidWord):
    """The conjugation map: a callable chi with Q o h_alpha == chi o Q on
    x-basis words.  For the identity it is h_alpha itself, for the total
    winding the identity of Z, and an abelian family solves
    C Q(x_i) = Q(x_{pi(i)}) straight from its rows, so no image word is
    built.  ValueError where the square is undefined (a twisted identity,
    or rows no rational C maps this way)."""
    if isinstance(family, TotalWinding):
        return lambda k: k
    if isinstance(family, Identity) and family.images is None:
        return lambda w: artin_act(alpha, w, Basis.X)
    if not isinstance(family, AbelianImage):
        raise ValueError(f"chi map undefined for {family!r}")
    # the rational d x d matrix C with C Q(x_i) = Q(x_{pi(i)}) for every i,
    # as a map that refuses images off the integer lattice
    rows = family._rows(alpha.strands)
    perm = braidmod.permutation(alpha)
    mat = []
    for a in range(len(rows[0])):
        # row a of C solves: sum_b C[a][b] * rows[i][b] = rows[pi(i)][a] for all i
        sol = _solve_exact(
            [[Fraction(x) for x in rows[i]] + [Fraction(rows[p - 1][a])]
             for i, p in enumerate(perm)]
        )
        if sol is None:
            raise ValueError(
                f"{family.name} family admits no conjugation-compatibility map for this braid"
            )
        mat.append(sol)

    def chi(elem):
        out = tuple(sum(c * x for c, x in zip(row, elem)) for row in mat)
        if any(x.denominator != 1 for x in out):
            raise ValueError(f"chi maps {tuple(elem)} off the integer lattice: {out}")
        return tuple(int(x) for x in out)

    return chi


def sigma(family, elem, n: int):
    """The stabilization monomorphism with Q_{n+1} o iota == sigma o Q_n:
    the inclusion F_n into F_{n+1} for the identity, the identity of Z for
    the total winding, and Z^n into Z^(n+1) for the abelianization.  Only
    these rank-free families define it; ValueError otherwise."""
    if isinstance(family, TotalWinding):
        return elem
    if isinstance(family, Identity) and family.images is None:
        return elem.with_rank(n + 1)
    if isinstance(family, AbelianImage) and family.rows is None:
        return tuple(elem) + (0,)
    raise ValueError(f"stabilization map undefined for {family!r}")


def _solve_exact(rows):
    """Solve the linear system given as an augmented rational matrix.

    Returns one solution vector or None when inconsistent.
    """
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) - 1
    piv = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        sol[c] = m[i][-1]
    return sol


# --- proof-level identity checks ------------------------------------------------


@dataclasses.dataclass
class AdmissibilityReport:
    family: str
    passed: bool
    conjugation_ok: bool
    stabilization_ok: bool | None  # None: square not defined for this family
    first_failure: str | None = None


def check_admissibility(family, beta: BraidWord, alpha: BraidWord) -> AdmissibilityReport:
    """Verify both Markov-compatibility squares on every free generator.

    Conjugation square: Q(h_alpha(x_i)) == chi(Q(x_i)).  Stabilization
    square: Q_{n+1}(iota(x_i)) == sigma(Q_n(x_i)), reported as None when
    the family has no sigma.  Failures are reported, not raised.
    """
    if beta.strands != alpha.strands:
        raise ValueError("beta and alpha must share a strand count")
    n = beta.strands
    name = getattr(family, "name", str(family))
    first_failure = None
    gens = [FreeWord.gen(n, i) for i in range(1, n + 1)]

    conj_ok = True
    try:
        chi = chi_map(family, alpha)
    except ValueError as exc:
        conj_ok = False
        first_failure = f"chi: {exc}"
    else:
        for i, xi in enumerate(gens, 1):
            lhs = family_apply(family, artin_act(alpha, xi, Basis.X), n)
            rhs = chi(family_apply(family, xi, n))
            if lhs != rhs:
                conj_ok = False
                first_failure = f"conjugation square fails at x{i}"
                break

    try:
        stabilized = [sigma(family, family_apply(family, xi, n), n) for xi in gens]
    except ValueError:
        stab_ok = None
    else:
        stab_ok = True
        for i, (xi, rhs) in enumerate(zip(gens, stabilized), 1):
            if family_apply(family, xi.with_rank(n + 1), n + 1) != rhs:
                stab_ok = False
                if first_failure is None:
                    first_failure = f"stabilization square fails at x{i}"
                break

    passed = conj_ok and (stab_ok is not False)
    return AdmissibilityReport(name, passed, conj_ok, stab_ok, first_failure)


@dataclasses.dataclass
class BlockTriangReport:
    braid: BraidWord
    sign: int
    lower_left_zero: bool
    top_block_matches: bool
    corner_matches: bool
    determinant_identity_ok: bool
    determinant_residuals: dict

    @property
    def passed(self) -> bool:
        return (
            self.lower_left_zero
            and self.top_block_matches
            and self.corner_matches
            and self.determinant_identity_ok
        )


def verify_block_triangularization(
    beta: BraidWord, sign: int, t_checks: Sequence = (Fraction(1, 2), 1, 2)
) -> BlockTriangReport:
    """Check the stabilization bookkeeping behind the second Markov move.

    For w = stabilize(beta, sign) over the total-winding family, compose
    (Burau(w) - Id) on the left with the inverse generator matrix D and
    then with the fundamental-formula matrix G (identity rows except the
    last, which holds kappa(g_j) - 1).  The result must be block upper
    triangular with the original (Burau(beta) - Id) as its top-left block
    and a known corner entry.  Numerically, the determinants must satisfy
    max(1,t)^n * t * det(Burau(w) - Id) = max(1,t)^(n+1) * det(Burau(beta) - Id)
    for the negative crossing, and the same with t replaced by 1/t on both
    sides for the positive crossing.
    """
    n = beta.strands
    fam = TotalWinding()
    w = braidmod.stabilize(beta, sign)
    Ew, Eb = minus_identity_matrix(w, fam), minus_identity_matrix(beta, fam)
    grp = Ew.group
    size = n  # reduced size of a braid on n+1 strands

    # D undoes the stabilizing generator: the inverse generator's matrix
    D = generator_matrix(n + 1, n, -sign, fam)
    # G carries the fundamental formula of Fox calculus in its last row
    rows = []
    for r in range(size):
        row = []
        for ccol in range(size):
            if r < size - 1:
                row.append(
                    GroupRingElement.one(grp)
                    if r == ccol
                    else GroupRingElement.zero(grp)
                )
            else:
                j = ccol + 1
                term = GroupRingElement(grp, {j: TPoly({j: 1}), 0: TPoly({0: -1})})
                row.append(term)
        rows.append(row)
    G = GroupRingMatrix(grp, rows)

    Y = matmul(G, matmul(D, Ew))

    lower_left_zero = all(Y.entries[size - 1][j].is_zero() for j in range(size - 1))
    top_ok = all(
        Y.entries[i][j] == Eb.entries[i][j]
        for i in range(n - 1)
        for j in range(n - 1)
    )
    if sign < 0:
        expected_corner = GroupRingElement(grp, {n + 1: TPoly({n + 1: 1}), 0: TPoly({0: -1})})
    else:
        expected_corner = GroupRingElement(grp, {n: TPoly({n: 1}), -1: TPoly({-1: -1})})
    corner_ok = Y.entries[size - 1][size - 1] == expected_corner

    residuals = {}
    det_ok = True
    Dw, Db = _symbolic_det(w, fam), _symbolic_det(beta, fam)
    for t0 in t_checks:
        t0 = Fraction(t0)
        dw = roots_estimate(grp, Dw, t0).value
        db = roots_estimate(grp, Db, t0).value
        mx = float(max(Fraction(1), t0))
        tf = float(t0)
        if sign < 0:
            lhs = mx**n * tf * dw
            rhs = mx ** (n + 1) * db
        else:
            lhs = mx**n * (1.0 / tf) * dw
            rhs = (1.0 / tf) * mx ** (n + 1) * db
        resid = abs(lhs - rhs) / max(1.0, abs(rhs))
        residuals[str(t0)] = resid
        if resid > 1e-8:
            det_ok = False

    return BlockTriangReport(
        braid=beta,
        sign=sign,
        lower_left_zero=lower_left_zero,
        top_block_matches=top_ok,
        corner_matches=corner_ok,
        determinant_identity_ok=det_ok,
        determinant_residuals=residuals,
    )


@dataclasses.dataclass
class ConjugationReport:
    braid: BraidWord
    alpha: BraidWord
    family_name: str
    symbolic_equal: bool
    det_residual: float | None

    @property
    def passed(self) -> bool:
        return self.symbolic_equal


def conjugation_identity_check(
    beta: BraidWord, alpha: BraidWord, family
) -> ConjugationReport:
    """Exact matrix identity governing the first Markov move.

    Stated multiplicatively to avoid inverting a matrix over a
    noncommutative ring: with f = family o h_{alpha^-1} and
    g = family o h_{alpha^-1 beta},

        B_f(alpha) . B_family(alpha^-1 beta alpha) ==
        B_f(beta) . B_g(alpha)

    where . is operator composition (``matmul`` with ``opposite``).
    For the total-winding family the determinants of both sides are also
    compared numerically at t = 2.
    """
    if beta.strands != alpha.strands:
        raise ValueError("beta and alpha must share a strand count")
    ainv = braidmod.invert(alpha)
    f = family.twist(ainv)
    g = family.twist(braidmod.compose(ainv, beta))
    conj = braidmod.conjugate(beta, alpha)
    lhs = matmul(reduced_burau(alpha, f).matrix, reduced_burau(conj, family).matrix, opposite=True)
    rhs = matmul(reduced_burau(beta, f).matrix, reduced_burau(alpha, g).matrix, opposite=True)
    equal = lhs == rhs
    det_resid = None
    if isinstance(family, TotalWinding):
        d1 = det_integers(lhs, 2).value
        d2 = det_integers(rhs, 2).value
        det_resid = abs(d1 - d2) / max(1.0, abs(d2))
    return ConjugationReport(
        braid=beta,
        alpha=alpha,
        family_name=getattr(family, "name", str(family)),
        symbolic_equal=equal,
        det_residual=det_resid,
    )
