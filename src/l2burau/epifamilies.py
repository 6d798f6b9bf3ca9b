"""Families of epimorphisms from free groups onto coefficient groups.

Three computable kinds are provided: the identity of the free group, the
total winding map onto Z (every puncture generator to 1), and abelian
quotients onto Z^d.  Every abelian family is one :class:`AbelianImage`:
a linear map from x-exponents to Z^d, given by the integer image rows
Q(x_1), ..., Q(x_n).  ``AbelianImage()`` is the rank-free abelianization
``ab`` (x_i to the i-th basis vector of Z^n, at every rank n), and
``AbelianImage(rows)`` is a matrix family such as ``custom``, read from a
file.  A file's rows must span Z^d for the family to be an epimorphism,
which :func:`family_by_name` checks.

Every family class carries the whole protocol a Markov experiment needs:

* ``target(n)`` and ``apply(w, n, basis)``: the quotient Q on n strands;
* ``twist(prefix)``: family o h_prefix, which the Burau fold takes one
  letter at a time.  The total winding is unchanged by it, an abelian
  family permutes its rows (h_alpha(x_i) is a conjugate of x_{pi(i)}, pi
  the strand permutation of alpha), and the identity becomes a twisted
  :class:`Identity` that keeps the images h_prefix(g_1), ..., h_prefix(g_n),
  built by substituting them into the braid-action table of
  :mod:`l2burau.freegroup`, letter by letter;
* ``chi_map(alpha)``: a callable chi with Q o h_alpha == chi o Q
  (conjugation square); an abelian family solves C Q(x_i) = Q(x_{pi(i)})
  straight from its rows, so no image word is ever built;
* ``sigma(elem, n)``: the stabilization monomorphism with
  Q_{n+1} o iota == sigma o Q_n.

Where a square is undefined, ``chi_map`` and ``sigma`` raise ValueError.
Only the rank-free families (id, phi, ab) define sigma; a twisted
identity defines neither map.

Quotients onto braid-closure groups and their deeper images are outside
the computable range of this library (no terminating word problem is
available there); they appear only in documentation and in the
one-variable consequences tested through the torsion module.

Families compare and hash by value, so a (braid, family) pair can key a
cache of the t-free part of an evaluation.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from fractions import Fraction

from . import braid as braidmod
from .braid import BraidWord
from .freegroup import (
    Basis,
    FreeWord,
    _letter_image,
    _substitute,
    artin_act,
    change_of_basis,
    winding,
)
from .groupring import CoefficientGroup, Free, FreeAbelian, Integers, _laplace


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
        old images substituted into h_a(g_j); h_a moves g_{|a|} alone, to
        its entry in the braid-action table."""
        n = prefix.strands
        images = self._images(n)
        for a in prefix.letters:
            images[abs(a) - 1] = _substitute(images, _letter_image(a, n))
        return Identity(images)

    def chi_map(self, alpha: BraidWord):
        """chi = h_alpha itself, on x-basis words; undefined once twisted."""
        if self.images is not None:
            raise ValueError(f"chi map undefined for {self!r}")
        return lambda w: artin_act(alpha, w, Basis.X)

    def sigma(self, elem: FreeWord, n: int) -> FreeWord:
        """The inclusion F_n into F_{n+1}; undefined once twisted."""
        if self.images is not None:
            raise ValueError(f"stabilization map undefined for {self!r}")
        return elem.with_rank(n + 1)

    def __repr__(self):
        return "Identity()" if self.images is None else f"Identity({self.images!r})"

    def __eq__(self, other):
        return isinstance(other, Identity) and self.images == other.images

    def __hash__(self):
        return hash((Identity, self.images))


class TotalWinding:
    """Q = total winding onto Z: every x_i to 1, hence g_i to i.

    The total winding of a word is braid-invariant, so a twist leaves the
    family unchanged and chi and sigma are both the identity of Z.
    """

    name = "phi"

    def target(self, n: int) -> CoefficientGroup:
        return Integers()

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> int:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        return winding(w, basis)

    def twist(self, prefix: BraidWord) -> "TotalWinding":
        return self

    def chi_map(self, alpha: BraidWord):
        return lambda k: k

    def sigma(self, elem: int, n: int) -> int:
        return elem

    def __repr__(self):
        return "TotalWinding()"

    def __eq__(self, other):
        return isinstance(other, TotalWinding)

    def __hash__(self):
        return hash(TotalWinding)


class AbelianImage:
    """Q onto Z^d: x_i to rows[i-1], extended linearly to x-exponents.

    ``rows=None`` is the rank-free abelianization: x_i to the i-th basis
    vector of Z^n at every rank n.  A matrix of rows is defined only at
    its own rank: applying it to words of another rank is an error, and
    it has no stabilization map.

    ``name`` says where the rows came from: ``ab`` for the abelianization,
    ``custom`` for a matrix given as such (as a file read by
    :func:`family_by_name`), ``twisted`` for the image of a twist.  It
    takes no part in equality, which compares the rows alone.
    """

    def __init__(self, rows: Sequence[Sequence[int]] | None = None):
        if rows is not None:
            rows = tuple(tuple(int(x) for x in row) for row in rows)
            if not rows:
                raise ValueError("need at least one generator image")
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("ragged image matrix")
        self.rows = rows
        self.name = "ab" if rows is None else "custom"

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
                f"{self.name} family defined for rank {len(self.rows)}, got rank {rank}"
            )

    def _rows(self, n: int) -> tuple[tuple[int, ...], ...]:
        """The image rows on n strands."""
        self._check(n, n)
        if self.rows is not None:
            return self.rows
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

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
        out = AbelianImage(rows[p - 1] for p in braidmod.permutation(prefix))
        out.name = "twisted"
        return out

    def chi_map(self, alpha: BraidWord):
        """The rational d x d matrix C with C Q(x_i) = Q(x_{pi(i)}) for every
        i, as a map that refuses images off the integer lattice."""
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
                    f"{self.name} family admits no conjugation-compatibility map for this braid"
                )
            mat.append(sol)

        def chi(elem):
            out = tuple(sum(c * x for c, x in zip(row, elem)) for row in mat)
            if any(x.denominator != 1 for x in out):
                raise ValueError(f"chi maps {tuple(elem)} off the integer lattice: {out}")
            return tuple(int(x) for x in out)

        return chi

    def sigma(self, elem, n: int):
        """Stabilization of the rank-free abelianization: Z^n into Z^(n+1)."""
        if self.rows is not None:
            raise ValueError(f"stabilization map undefined for {self!r}")
        return tuple(elem) + (0,)

    def __repr__(self):
        return f"AbelianImage({self.rows!r})"

    def __eq__(self, other):
        return isinstance(other, AbelianImage) and self.rows == other.rows

    def __hash__(self):
        return hash((AbelianImage, self.rows))


EpiFamily = Identity | TotalWinding | AbelianImage


def twists_cheaply(family) -> bool:
    """True when :func:`twist` avoids materializing Artin image words.

    The benchmark harness is its only caller, and ROADMAP item 9 drops it.
    """
    return isinstance(family, (TotalWinding, AbelianImage))


def twist(family, prefix: BraidWord):
    """family o h_prefix; each family twists itself."""
    return family.twist(prefix)


def family_by_name(tag: str) -> EpiFamily:
    """CLI names: id, phi, ab, custom:<path to integer matrix file>."""
    if tag == "id":
        return Identity()
    if tag == "phi":
        return TotalWinding()
    if tag == "ab":
        return AbelianImage()
    if tag.startswith("custom:"):
        path = tag.split(":", 1)[1]
        try:
            with open(path) as fh:
                rows = [[int(x) for x in line.split()] for line in fh if line.strip()]
        except OSError as exc:
            raise ValueError(f"cannot read custom family file {path!r}: {exc.strerror}") from None
        fam = AbelianImage(rows)
        index = _lattice_index(fam.rows)
        if index != 1:
            raise ValueError(
                f"custom images span a sublattice of Z^{fam.d} "
                f"(gcd of the {fam.d} x {fam.d} minors is {index}), not Z^{fam.d}"
            )
        return fam
    raise ValueError(f"unknown family {tag!r}")


def _lattice_index(rows) -> int:
    """gcd of the d x d minors of integer rows: 1 exactly when they span Z^d.
    A minor of constant flat entries has the one key (identity, t^0)."""
    index = 0
    for sub in itertools.combinations(rows, len(rows[0])):
        minor = _laplace(Integers(), [[{(0, 0): x} if x else {} for x in row] for row in sub])
        index = math.gcd(index, minor.get((0, 0), 0))
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
