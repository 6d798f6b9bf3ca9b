"""Reduced words in a free group, Fox derivatives, and the Artin action.

Words are stored in run-length (syllable) form: a sequence of
(generator index, nonzero exponent) pairs with adjacent indices distinct.
The same representation serves two generating sets of the free group on n
generators: the puncture loops x_1..x_n and the nested loops
g_i = x_1 x_2 ... x_i.  A :class:`Basis` tag says which alphabet a word is
written in; the total-winding weight of a generator differs between them
(weight(x_i) = 1, weight(g_i) = i).
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

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        prev = 0
        for g, e in self.syllables:
            if not 1 <= g <= self.rank:
                raise ValueError(f"generator {g} out of range for rank {self.rank}")
            if e == 0 or g == prev:
                raise ValueError("syllables must be reduced with nonzero exponents")
            prev = g

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
        return sum(abs(e) for _, e in self.syllables)

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


def fox_derivative_terms(u: FreeWord, i: int) -> dict[FreeWord, int]:
    """The i-th Fox derivative of a word as {group element: integer} terms.

    Defining rules: d(x_j)/d(x_i) = delta_ij, d(x_j^-1)/d(x_i) =
    -delta_ij x_j^-1, and d(uv)/d(x_i) = du/d(x_i) + u dv/d(x_i).
    """
    if not 1 <= i <= u.rank:
        raise ValueError(f"derivative index {i} out of range for rank {u.rank}")
    terms: dict[FreeWord, int] = {}
    prefix = FreeWord.identity(u.rank)
    for g, step in u.letters():
        if step > 0:
            if g == i:
                # d(x_i) contributes the running prefix
                key = prefix
                terms[key] = terms.get(key, 0) + 1
            prefix = prefix * FreeWord.gen(u.rank, g)
        else:
            prefix = prefix * FreeWord.gen(u.rank, g, -1)
            if g == i:
                key = prefix
                terms[key] = terms.get(key, 0) - 1
    return {k: c for k, c in terms.items() if c}


def fox_derivative(u: FreeWord, i: int):
    """Fox derivative packaged as a group-ring element over Free(rank)."""
    from . import groupring  # deferred: groupring imports this module

    return groupring.GroupRingElement(
        groupring.Free(u.rank),
        {k: groupring.TPoly.const(c) for k, c in fox_derivative_terms(u, i).items()},
    )


def augmentation(e):
    """Sum of coefficients of a group-ring element (x_i -> 1 everywhere)."""
    return e.augmentation()


# --- Artin action ---------------------------------------------------------


def _act_letter_x(letter: int, w: FreeWord) -> FreeWord:
    """One Artin generator acting on an x-basis word."""
    n = w.rank
    i = abs(letter)
    out: list[tuple[int, int]] = []
    if letter > 0:
        xi = ((i, 1),)
        img_i = ((i, 1), (i + 1, 1), (i, -1))  # x_i -> x_i x_{i+1} x_i^-1
        img_next = xi  # x_{i+1} -> x_i
    else:
        img_i = ((i + 1, 1),)  # x_i -> x_{i+1}
        img_next = ((i + 1, -1), (i, 1), (i + 1, 1))  # x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
    for g, e in w.syllables:
        if g == i:
            img = img_i
        elif g == i + 1:
            img = img_next
        else:
            out.append((g, e))
            continue
        rep = img if e > 0 else tuple((a, -x) for a, x in reversed(img))
        for _ in range(abs(e)):
            out.extend(rep)
    return word(n, out)


def _act_letter_g(letter: int, w: FreeWord) -> FreeWord:
    """One Artin generator acting on a g-basis word; only g_i moves."""
    n = w.rank
    i = abs(letter)
    if letter > 0:
        img = tuple(
            (g, e) for g, e in ((i + 1, 1), (i, -1), (i - 1, 1)) if g >= 1
        )  # g_i -> g_{i+1} g_i^-1 g_{i-1}, with g_0 = 1
    else:
        img = tuple(
            (g, e) for g, e in ((i - 1, 1), (i, -1), (i + 1, 1)) if g >= 1
        )
    out: list[tuple[int, int]] = []
    for g, e in w.syllables:
        if g != i:
            out.append((g, e))
            continue
        rep = img if e > 0 else tuple((a, -x) for a, x in reversed(img))
        for _ in range(abs(e)):
            out.extend(rep)
    return word(n, out)


def artin_act(beta: BraidWord, w: FreeWord, basis: Basis = Basis.X) -> FreeWord:
    """Image of the word under the braid's automorphism of the free group.

    The last letter of the braid word acts first, so that
    artin_act(compose(a, b), w) == artin_act(a, artin_act(b, w)).
    """
    if w.rank != beta.strands:
        raise ValueError(
            f"word rank {w.rank} does not match strand count {beta.strands}"
        )
    act = _act_letter_x if basis is Basis.X else _act_letter_g
    for letter in reversed(beta.letters):
        if abs(letter) > beta.strands - 1:
            raise ValueError(f"letter {letter} out of range")
        w = act(letter, w)
    return w


def change_of_basis(w: FreeWord, frm: Basis, to: Basis) -> FreeWord:
    """Rewrite between the bases via g_i = x_1..x_i and x_i = g_{i-1}^-1 g_i."""
    if frm is to:
        return w
    n = w.rank
    out: list[tuple[int, int]] = []
    for g, e in w.syllables:
        if frm is Basis.G:  # g_i = x_1 ... x_i
            img = tuple((j, 1) for j in range(1, g + 1))
        else:  # x_i = g_{i-1}^-1 g_i
            img = tuple(p for p in ((g - 1, -1), (g, 1)) if p[0] >= 1)
        rep = img if e > 0 else tuple((a, -x) for a, x in reversed(img))
        for _ in range(abs(e)):
            out.extend(rep)
    return word(n, out)


def random_word(rng, rank: int, length: int) -> FreeWord:
    """Random reduced word of roughly the requested length."""
    letters: list[tuple[int, int]] = []
    for _ in range(length):
        g = rng.randint(1, rank)
        e = rng.choice((1, -1))
        letters.append((g, e))
    return word(rank, letters)
