"""Families of epimorphisms from free groups onto coefficient groups.

Three computable kinds are provided: the identity of the free group, the
total winding map onto Z (every puncture generator to 1), and abelian
quotients onto Z^d.  Every abelian family is one :class:`AbelianImage`:
a linear map from x-exponents to Z^d, given by the integer image rows
Q(x_1), ..., Q(x_n).  The abelianization ``ab`` is its rank-free case
(x_i to the i-th basis vector of Z^n, at every rank n), and ``custom``
reads the rows from a file.  Since h_alpha(x_i) is a conjugate of
x_{pi(i)}, pi the strand permutation of alpha, twisting an abelian family
by a braid only permutes its rows, and its chi solves C Q(x_i) =
Q(x_{pi(i)}) straight from the rows; no image word is ever built.  A
file's rows must span Z^d for the family to be an epimorphism, which
:func:`family_by_name` checks.

Every family twists itself: ``twist(family, prefix)`` is family o
h_prefix, which the Burau fold takes one letter at a time.  The total
winding is unchanged by it, and the identity becomes a twisted
:class:`Identity` that keeps the images h_prefix(g_1), ..., h_prefix(g_n).

Each untwisted kind supplies, for a braid alpha, the compatibility map chi
with Q o h_alpha == chi o Q (conjugation square) and, where defined, the
stabilization monomorphism sigma with Q_{n+1} o iota == sigma o Q_n.
Only the rank-free families (id, phi, ab) define sigma.

Quotients onto braid-closure groups and their deeper images are outside
the computable range of this library (no terminating word problem is
available there); they appear only in documentation and in the
one-variable consequences tested through the torsion module.

Families compare and hash by value, so a (braid, family) pair can key a
cache of the t-free part of an evaluation.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Sequence

from fractions import Fraction

from . import braid as braidmod
from .braid import BraidWord
from .freegroup import Basis, FreeWord, _act_letter_g, artin_act, change_of_basis, word
from .groupring import CoefficientGroup, Free, FreeAbelian, Integers


class Identity:
    """Q = id on every free group, or id o h_prefix for a braid prefix.

    ``images=None`` is the untwisted identity, at every rank.  Otherwise
    ``images[j-1]`` is h_prefix(g_j) in the g-basis, and the family is
    defined at that rank only; x-basis words go through the g-basis.
    """

    def __init__(self, images: Sequence[FreeWord] | None = None):
        if images is not None:
            images = tuple(images)
            if not images or any(w.rank != len(images) for w in images):
                raise ValueError("need one image of rank n per generator")
        self.images = images

    @property
    def name(self) -> str:
        return "id" if self.images is None else "twisted"

    def _images(self, n: int) -> list[FreeWord]:
        if self.images is None:
            return [FreeWord.gen(n, j) for j in range(1, n + 1)]
        if n != len(self.images):
            raise ValueError(f"twisted identity defined for rank {len(self.images)}, got {n}")
        return list(self.images)

    def target(self, n: int) -> CoefficientGroup:
        return Free(n)

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> FreeWord:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        if self.images is None:
            return w
        out = _substitute(self._images(n), change_of_basis(w, basis, Basis.G))
        return change_of_basis(out, Basis.G, basis)

    def twist(self, prefix: BraidWord) -> "Identity":
        """self o h_prefix, one letter at a time: artin_act applies the last
        letter first, so h_{pa} = h_p o h_a, and the new image of g_j is the
        old images substituted into h_a(g_j); h_a moves g_{|a|} alone."""
        images = self._images(prefix.strands)
        for a in prefix.letters:
            moved = _act_letter_g(a, FreeWord.gen(prefix.strands, abs(a)))
            images[abs(a) - 1] = _substitute(images, moved)
        return Identity(images)

    def __repr__(self):
        return "Identity()" if self.images is None else f"Identity({self.images!r})"

    def __eq__(self, other):
        return isinstance(other, Identity) and self.images == other.images

    def __hash__(self):
        return hash((Identity, self.images))


def _substitute(images: Sequence[FreeWord], w: FreeWord) -> FreeWord:
    """The word w with every generator j replaced by images[j-1]."""
    out: list[tuple[int, int]] = []
    for g, e in w.syllables:
        img = images[g - 1]
        rep = img if e > 0 else img.inverse()
        for _ in range(abs(e)):
            out.extend(rep.syllables)
    return word(w.rank, out)


class TotalWinding:
    """Q = total winding onto Z: every x_i to 1, hence g_i to i."""

    name = "phi"

    def target(self, n: int) -> CoefficientGroup:
        return Integers()

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> int:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        if basis is Basis.X:
            return sum(e for _, e in w.syllables)
        return sum(g * e for g, e in w.syllables)

    def __repr__(self):
        return "TotalWinding()"

    def __eq__(self, other):
        return isinstance(other, TotalWinding)

    def __hash__(self):
        return hash(TotalWinding)


def _unit_rows(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rows of the map x_i to the perm[i]-th basis vector of Z^len(perm)."""
    return tuple(tuple(int(j == p) for j in range(1, len(perm) + 1)) for p in perm)


class AbelianImage:
    """Q onto Z^d: x_i to rows[i-1], extended linearly to x-exponents.

    ``rows=None`` is the rank-free abelianization: x_i to the i-th basis
    vector of Z^n at every rank n.  A matrix of rows is defined only at
    its own rank: applying it to words of another rank is an error, and
    its stabilization square is reported unsupported.
    """

    def __init__(self, rows: Sequence[Sequence[int]] | None = None):
        if rows is not None:
            rows = tuple(tuple(int(x) for x in row) for row in rows)
            if not rows:
                raise ValueError("need at least one generator image")
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("ragged image matrix")
        self.rows = rows

    @property
    def name(self) -> str:
        return "ab" if self.rows is None else "custom"

    @property
    def d(self) -> int | None:
        """Rank of the target, or None when it follows the strand count."""
        return None if self.rows is None else len(self.rows[0])

    def _check(self, n: int, rank: int):
        """Raise unless words of this rank on n strands are in the domain."""
        if self.rows is None and rank != n:
            raise ValueError(f"rank {rank} does not match strands {n}")
        if self.rows is not None and not n == rank == len(self.rows):
            raise ValueError(
                f"custom family defined for rank {len(self.rows)}, got rank {rank}"
            )

    def _rows(self, n: int) -> tuple[tuple[int, ...], ...]:
        """The image rows on n strands."""
        self._check(n, n)
        return _unit_rows(range(1, n + 1)) if self.rows is None else self.rows

    def target(self, n: int) -> CoefficientGroup:
        return FreeAbelian(n if self.rows is None else self.d)

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> tuple[int, ...]:
        self._check(n, w.rank)
        x = [0] * n  # exponent sum of each x_i in w
        for g, e in w.syllables:
            if basis is Basis.X:
                x[g - 1] += e
            else:  # g_i = x_1 ... x_i
                for j in range(g):
                    x[j] += e
        if self.rows is None:
            return tuple(x)
        return tuple(
            sum(c * row[a] for c, row in zip(x, self.rows)) for a in range(self.d)
        )

    def twist(self, prefix: BraidWord) -> "AbelianImage":
        """self o h_prefix: new row i = old row pi(i)."""
        rows = self._rows(prefix.strands)
        return AbelianImage(rows[p - 1] for p in braidmod.permutation(prefix))

    def chi_map(self, alpha: BraidWord) -> "ChiMap":
        """The rational d x d matrix C with C Q(x_i) = Q(x_{pi(i)}) for every i."""
        rows = self._rows(alpha.strands)
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
                    "custom family admits no conjugation-compatibility map for this braid"
                )
            mat.append(sol)
        return ChiMap("matrix", mat)

    def sigma(self, elem, n: int):
        """Stabilization of the rank-free abelianization: Z^n into Z^(n+1)."""
        if self.rows is not None:
            raise ValueError(f"stabilization map undefined for {self!r}")
        return tuple(elem) + (0,)

    def winding_factors_through(self) -> bool:
        """True when some functional c on Z^d has <c, Q(x_i)> = 1 for all i."""
        if self.rows is None:
            return True  # c = (1, ..., 1)
        m = [[Fraction(x) for x in row] + [Fraction(1)] for row in self.rows]
        return _solve_exact(m) is not None

    def __repr__(self):
        return f"AbelianImage({self.rows!r})"

    def __eq__(self, other):
        return isinstance(other, AbelianImage) and self.rows == other.rows

    def __hash__(self):
        return hash((AbelianImage, self.rows))


class Abelianization(AbelianImage):
    """Q = abelianization onto Z^n: x_i to the i-th basis vector."""

    def __init__(self):
        super().__init__(None)


class CustomAbelian(AbelianImage):
    """Abelian quotient onto Z^d defined by images of the x-generators."""

    def __init__(self, images: Sequence[Sequence[int]]):
        super().__init__(images)


class PermutedAbelianization(AbelianImage):
    """The abelianization twisted by a braid of strand permutation perm."""

    def __init__(self, perm: Sequence[int]):
        super().__init__(_unit_rows(perm))


EpiFamily = Identity | TotalWinding | AbelianImage


def twists_cheaply(family) -> bool:
    """True when :func:`twist` avoids materializing Artin image words.

    The benchmark harness is its only caller, and ROADMAP item 6 drops it.
    """
    return isinstance(family, (TotalWinding, AbelianImage))


def twist(family, prefix: BraidWord):
    """family o h_prefix.

    The total winding of a word is braid-invariant, an abelian family only
    gets its image rows permuted, and the identity substitutes its
    generator images one letter at a time.
    """
    if isinstance(family, TotalWinding):
        return family
    return family.twist(prefix)


def family_by_name(tag: str) -> EpiFamily:
    """CLI names: id, phi, ab, custom:<path to integer matrix file>."""
    if tag == "id":
        return Identity()
    if tag == "phi":
        return TotalWinding()
    if tag == "ab":
        return Abelianization()
    if tag.startswith("custom:"):
        path = tag.split(":", 1)[1]
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([int(x) for x in line.split()])
        fam = CustomAbelian(rows)
        index = _lattice_index(fam.rows)
        if index != 1:
            raise ValueError(
                f"custom images span a sublattice of Z^{fam.d} "
                f"(gcd of the {fam.d} x {fam.d} minors is {index}), not Z^{fam.d}"
            )
        return fam
    raise ValueError(f"unknown family {tag!r}")


# --- chi / sigma compatibility maps ---------------------------------------


@dataclasses.dataclass
class ChiMap:
    """Descriptor of the conjugation-compatibility endomorphism."""

    kind: str
    data: object = None

    def __call__(self, elem):
        if self.kind == "identity":
            return elem
        if self.kind == "automorphism":
            alpha = self.data
            return artin_act(alpha, elem, Basis.X)
        if self.kind == "matrix":
            mat = self.data  # d x d rational matrix acting on column vectors
            out = tuple(
                sum(Fraction(mat[a][b]) * elem[b] for b in range(len(elem)))
                for a in range(len(mat))
            )
            if any(x.denominator != 1 for x in out):
                raise ValueError(f"chi maps {tuple(elem)} off the integer lattice: {out}")
            return tuple(int(x) for x in out)
        raise ValueError(f"unknown chi kind {self.kind}")


def chi_map(family, alpha: BraidWord) -> ChiMap:
    """The map chi with Q o h_alpha == chi o Q on the target of Q."""
    if isinstance(family, TotalWinding):
        return ChiMap("identity")
    if isinstance(family, Identity) and family.images is None:
        return ChiMap("automorphism", alpha)
    if isinstance(family, AbelianImage):
        return family.chi_map(alpha)
    raise ValueError(f"chi map undefined for {family!r}")


def sigma_supported(family) -> bool:
    if isinstance(family, AbelianImage):
        return family.rows is None
    if isinstance(family, Identity):
        return family.images is None
    return True


def sigma_apply(family, elem, n: int):
    """Stabilization monomorphism on the target, Q_{n+1} o iota == sigma o Q_n."""
    if isinstance(family, TotalWinding):
        return elem
    if isinstance(family, Identity) and family.images is None:
        return elem.with_rank(n + 1)
    if isinstance(family, AbelianImage):
        return family.sigma(elem, n)
    raise ValueError(f"stabilization map undefined for {family!r}")


def _lattice_index(rows) -> int:
    """gcd of the d x d minors of integer rows: 1 exactly when they span Z^d."""
    index = 0
    for sub in itertools.combinations(rows, len(rows[0])):
        m = [[Fraction(x) for x in row] for row in sub]
        det = Fraction(1)
        for c in range(len(m)):
            p = next((r for r in range(c, len(m)) if m[r][c]), None)
            if p is None:
                det = Fraction(0)
                break
            m[c], m[p] = m[p], m[c]
            det *= m[c][c] if p == c else -m[c][c]
            for r in range(c + 1, len(m)):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        index = math.gcd(index, int(det))
    return index


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


# --- admissibility checking ------------------------------------------------


@dataclasses.dataclass
class AdmissibilityReport:
    family: str
    passed: bool
    conjugation_ok: bool
    stabilization_ok: bool | None  # None: square not defined for this family
    first_failure: str | None = None

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


def check_admissibility(
    family, beta: BraidWord, alpha: BraidWord, sign: int
) -> AdmissibilityReport:
    """Verify both Markov-compatibility squares on every free generator.

    Conjugation square: Q(h_alpha(x_i)) == chi(Q(x_i)).  Stabilization
    square: Q_{n+1}(iota(x_i)) == sigma(Q_n(x_i)).  Failures are reported,
    not raised.
    """
    if beta.strands != alpha.strands:
        raise ValueError("beta and alpha must share a strand count")
    n = beta.strands
    name = getattr(family, "name", str(family))
    first_failure = None

    conj_ok = True
    try:
        chi = chi_map(family, alpha)
    except ValueError as exc:
        conj_ok = False
        first_failure = f"chi: {exc}"
    else:
        for i in range(1, n + 1):
            xi = FreeWord.gen(n, i)
            lhs = family.apply(artin_act(alpha, xi, Basis.X), n, Basis.X)
            rhs = chi(family.apply(xi, n, Basis.X))
            if lhs != rhs:
                conj_ok = False
                first_failure = f"conjugation square fails at x{i}"
                break

    if not sigma_supported(family):
        stab_ok = None
    else:
        stab_ok = True
        for i in range(1, n + 1):
            xi = FreeWord.gen(n, i)
            lhs = family.apply(xi.with_rank(n + 1), n + 1, Basis.X)
            rhs = sigma_apply(family, family.apply(xi, n, Basis.X), n)
            if lhs != rhs:
                stab_ok = False
                if first_failure is None:
                    first_failure = f"stabilization square fails at x{i}"
                break

    passed = conj_ok and (stab_ok is not False)
    return AdmissibilityReport(name, passed, conj_ok, stab_ok, first_failure)
