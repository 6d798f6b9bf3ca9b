"""Reduced words in a free group, Fox derivatives, and the Artin action.

Words are stored in run-length (syllable) form: a sequence of
(generator index, nonzero exponent) pairs with adjacent indices distinct.
The same representation serves two generating sets of the free group on n
generators: the puncture loops x_1..x_n and the nested loops
g_i = x_1 x_2 ... x_i.  A :class:`Basis` tag says which alphabet a word is
written in; the total-winding weight of a generator differs between them
(weight(x_i) = 1, weight(g_i) = i).

The braid action is stated once, as the table :func:`_letter_image` of
h(g_i) under each Artin generator, and applied by one substitution loop,
:func:`_substitute`.  The action in either basis, the change of basis, a
twisted identity family and the Burau column of a letter (the Fox
derivatives of its image) all read these two.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Sequence

from .braid import BraidWord


class Basis(enum.Enum):
    """Which free generating set a word is written in."""

    X = "x"
    G = "g"


def _normalize(syllables: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            if s == 0:
                out.pop()
            else:
                out[-1] = (g, s)
        else:
            out.append((g, e))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class FreeWord:
    """A freely reduced word; hashable, usable as a group-ring key."""

    rank: int
    syllables: tuple[tuple[int, int], ...]
    # the letter count, found while the syllables are validated; sort keys
    # read it for every term, so it is not summed again
    _length: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        prev = length = 0
        for g, e in self.syllables:
            if not 1 <= g <= self.rank:
                raise ValueError(f"generator {g} out of range for rank {self.rank}")
            if e == 0 or g == prev:
                raise ValueError("syllables must be reduced with nonzero exponents")
            prev = g
            length += abs(e)
        object.__setattr__(self, "_length", length)

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return FreeWord(rank, ())

    @staticmethod
    def gen(rank: int, i: int, e: int = 1) -> "FreeWord":
        return FreeWord(rank, ((i, e),) if e else ())

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch in free multiplication")
        return FreeWord(self.rank, _normalize(self.syllables + other.syllables))

    def inverse(self) -> "FreeWord":
        return FreeWord(
            self.rank, tuple((g, -e) for g, e in reversed(self.syllables))
        )

    def __pow__(self, n: int) -> "FreeWord":
        if n == 0:
            return FreeWord.identity(self.rank)
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        """Reduced word length (number of letters)."""
        return self._length

    def letters(self) -> Iterable[tuple[int, int]]:
        """Yield (generator, +-1) letter by letter."""
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield g, step

    def with_rank(self, rank: int) -> "FreeWord":
        """The same word in a larger free group."""
        if rank < self.rank:
            for g, _ in self.syllables:
                if g > rank:
                    raise ValueError("word uses generators beyond the new rank")
        return FreeWord(rank, self.syllables)

    def render(self, letter: str = "x") -> str:
        if not self.syllables:
            return "e"
        parts = []
        for g, e in self.syllables:
            parts.append(f"{letter}{g}" if e == 1 else f"{letter}{g}^{e}")
        return " ".join(parts)


def word(rank: int, syllables: Sequence[tuple[int, int]]) -> FreeWord:
    """Build a FreeWord, freely reducing the given syllables."""
    return FreeWord(rank, _normalize(syllables))


def parse_word(text: str, rank: int | None = None) -> FreeWord:
    """Parse words like ``x1 x2^-1 x1^3`` (or with any single-letter prefix)."""
    syllables = []
    maxg = 0
    for tok in text.split():
        if tok in ("e", "1"):
            continue
        body = tok[1:]
        if "^" in body:
            gs, es = body.split("^", 1)
            g, e = int(gs), int(es)
        else:
            g, e = int(body), 1
        maxg = max(maxg, g)
        syllables.append((g, e))
    if rank is None:
        rank = max(maxg, 1)
    return word(rank, syllables)


def winding(w: FreeWord, basis: Basis) -> int:
    """Total winding of a word: every x_i weighs 1, hence g_i weighs i."""
    if basis is Basis.X:
        return sum(e for _, e in w.syllables)
    return sum(g * e for g, e in w.syllables)


# --- Fox calculus ---------------------------------------------------------


def _fox_walk(u: FreeWord) -> Iterable[tuple[int, FreeWord, int]]:
    """One (i, prefix, +-1) per letter of u: the term that letter adds to
    d(u)/d(x_i).  A prefix that two letters share is the same object.

    Defining rules: d(x_j)/d(x_i) = delta_ij, d(x_j^-1)/d(x_i) =
    -delta_ij x_j^-1, and d(uv)/d(x_i) = du/d(x_i) + u dv/d(x_i).
    """
    syl = u.syllables
    prefix = FreeWord.identity(u.rank)
    for idx, (g, e) in enumerate(syl):
        step = 1 if e > 0 else -1
        for k in range(1, abs(e) + 1):
            # u is reduced, so its prefixes are its truncations
            after = FreeWord(u.rank, syl[:idx] + ((g, step * k),))
            # d(x_g) adds the prefix before it, d(x_g^-1) the one after it
            yield g, (prefix if step > 0 else after), step
            prefix = after


# --- Artin action ---------------------------------------------------------


def _letter_image(letter: int, n: int) -> FreeWord:
    """h(g_i) in the g-basis under sigma_i (letter i) or its inverse (-i).

    g_i is the one nested generator sigma_i^{+-1} moves: sigma_i sends it
    to g_{i+1} g_i^-1 g_{i-1} and sigma_i^-1 to g_{i-1} g_i^-1 g_{i+1},
    with g_0 = 1.  This is the only statement of the braid action; every
    other map and the Burau column of a letter are read from it.
    """
    i = abs(letter)
    first, last = (i + 1, i - 1) if letter > 0 else (i - 1, i + 1)
    return FreeWord(n, tuple(p for p in ((first, 1), (i, -1), (last, 1)) if p[0] >= 1))


def _substitute(images: Sequence[FreeWord], w: FreeWord) -> FreeWord:
    """The word w with every generator j replaced by images[j-1]."""
    out: list[tuple[int, int]] = []
    for g, e in w.syllables:
        img = images[g - 1] if e > 0 else images[g - 1].inverse()
        out.extend(img.syllables * abs(e))
    return word(w.rank, out)


def artin_act(beta: BraidWord, w: FreeWord, basis: Basis = Basis.X) -> FreeWord:
    """Image of the word under the braid's automorphism of the free group.

    The last letter of the braid word acts first, so that
    artin_act(compose(a, b), w) == artin_act(a, artin_act(b, w)).  Each
    letter substitutes its :func:`_letter_image` into a g-basis word; an
    x-basis word is rewritten in the g-basis and back.
    """
    n = w.rank
    if n != beta.strands:
        raise ValueError(
            f"word rank {n} does not match strand count {beta.strands}"
        )
    if basis is Basis.X:
        w = artin_act(beta, change_of_basis(w, Basis.X, Basis.G), Basis.G)
        return change_of_basis(w, Basis.G, Basis.X)
    gens = [FreeWord.gen(n, j) for j in range(1, n + 1)]
    for letter in reversed(beta.letters):
        if abs(letter) > n - 1:
            raise ValueError(f"letter {letter} out of range")
        images = list(gens)
        images[abs(letter) - 1] = _letter_image(letter, n)
        w = _substitute(images, w)
    return w


def change_of_basis(w: FreeWord, frm: Basis, to: Basis) -> FreeWord:
    """Rewrite between the bases via g_i = x_1..x_i and x_i = g_{i-1}^-1 g_i."""
    if frm is to:
        return w
    n = w.rank
    if frm is Basis.G:
        images = [FreeWord(n, tuple((j, 1) for j in range(1, i + 1))) for i in range(1, n + 1)]
    else:
        images = [FreeWord(n, tuple(p for p in ((i - 1, -1), (i, 1)) if p[0] >= 1))
                  for i in range(1, n + 1)]
    return _substitute(images, w)
