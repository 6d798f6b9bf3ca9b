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
  as the reference for the integer one of ``fkdet._squarefree_parts``.  The Fox
  jacobian, the evaluation helpers and the Gaussian elimination use plain
  dict and Fraction arithmetic only, so they check the group-ring kernel
  and the Burau fold without running through them.
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

import dataclasses
import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from l2burau import braid as braidmod
from l2burau.braid import BraidWord
from l2burau.epifamilies import TotalWinding
from l2burau.fkdet import _derivative, _trimmed, det_integers, roots_estimate
from l2burau.freegroup import Basis, FreeWord, _fox_walk, artin_act, winding, word
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


def kappa(
    w: FreeWord,
    family,
    n: int,
    basis: Basis = Basis.G,
    coeff: RationalLike = 1,
) -> GroupRingElement:
    """Send a free word to coeff * t^winding(w) * family(w).

    ``family`` is any epimorphism family object exposing ``target(n)`` and
    ``apply(word, n, basis)``; the winding exponent is computed from the
    word in its own basis (x-letters weigh 1, g-letters weigh their index).
    """
    elem = family.apply(w, n, basis)
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
        imgs.append(family.apply(w, n, basis))
        invs.append(family.apply(w.inverse(), n, basis))
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
        chi = family.chi_map(alpha)
    except ValueError as exc:
        conj_ok = False
        first_failure = f"chi: {exc}"
    else:
        for i, xi in enumerate(gens, 1):
            lhs = family.apply(artin_act(alpha, xi, Basis.X), n, Basis.X)
            rhs = chi(family.apply(xi, n, Basis.X))
            if lhs != rhs:
                conj_ok = False
                first_failure = f"conjugation square fails at x{i}"
                break

    try:
        stabilized = [family.sigma(family.apply(xi, n, Basis.X), n) for xi in gens]
    except ValueError:
        stab_ok = None
    else:
        stab_ok = True
        for i, (xi, rhs) in enumerate(zip(gens, stabilized), 1):
            if family.apply(xi.with_rank(n + 1), n + 1, Basis.X) != rhs:
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
