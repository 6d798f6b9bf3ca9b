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

A family carries what the Burau fold reads, and nothing else:

* ``target(n)``: the quotient group Q on n strands;
* ``apply(w, n)``: Q of a word in the nested-loop basis g_i = x_1..x_i,
  the basis every Burau column is written in;
* ``twist(prefix)``: family o h_prefix, which the fold takes one letter
  at a time.  The total winding is unchanged by it, an abelian family
  permutes its rows (h_alpha(x_i) is a conjugate of x_{pi(i)}, pi the
  strand permutation of alpha), and the identity becomes a twisted
  :class:`Identity` that keeps the images h_prefix(g_1), ...,
  h_prefix(g_n), built by substituting them into the braid-action table
  of :mod:`l2burau.freegroup`, letter by letter;
* ``name``, and equality and hashing by value, so a (braid, family) pair
  can key a cache of the t-free part of an evaluation.

The Markov-compatibility maps of the paper's proof (chi for conjugation,
sigma for stabilization) and the evaluation of a family on x-basis words
are kept by the tests, in ``tests/oracles.py``, with the admissibility
check that reads them.

Quotients onto braid-closure groups and their deeper images are outside
the computable range of this library (no terminating word problem is
available there); they appear only in documentation and in the
one-variable consequences tested through the torsion module.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import braid as braidmod
from .braid import BraidWord
from .freegroup import Basis, FreeWord, _letter_image, _substitute, winding
from .groupring import CoefficientGroup, Free, FreeAbelian, Integers, _laplace


class Identity:
    """Q = id on every free group, or id o h_prefix for a braid prefix.

    ``images=None`` is the untwisted identity, at every rank.  Otherwise
    ``images[j-1]`` is h_prefix(g_j) in the g-basis, and the family is
    defined at that rank only.
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

    def apply(self, w: FreeWord, n: int) -> FreeWord:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        return w if self.images is None else _substitute(self._images(n), w)

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

    def __repr__(self):
        return "Identity()" if self.images is None else f"Identity({self.images!r})"

    def __eq__(self, other):
        return isinstance(other, Identity) and self.images == other.images

    def __hash__(self):
        return hash((Identity, self.images))


class TotalWinding:
    """Q = total winding onto Z: every x_i to 1, hence g_i to i.

    The total winding of a word is braid-invariant, so a twist leaves the
    family unchanged.
    """

    name = "phi"

    def target(self, n: int) -> CoefficientGroup:
        return Integers()

    def apply(self, w: FreeWord, n: int) -> int:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        return winding(w, Basis.G)

    def twist(self, prefix: BraidWord) -> "TotalWinding":
        return self

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
    its own rank: applying it to words of another rank is an error.

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

    def apply(self, w: FreeWord, n: int) -> tuple[int, ...]:
        self._check(n, w.rank)
        x = [0] * n  # exponent sum of each x_i in w
        for g, e in w.syllables:  # g_i = x_1 ... x_i
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

