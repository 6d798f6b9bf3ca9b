"""Braid words, their elementary algebra, and Markov moves.

A braid on n strands is stored as a plain word in the Artin generators:
a sequence of signed integers, where letter i > 0 is the generator
sigma_i (strand i crosses over strand i+1) and -i is its inverse.
Words are kept unreduced; the braid group has relations beyond free
cancellation, so only the optional :func:`free_cancel` cleanup is offered.

Composition convention (fixed here and used consistently everywhere
downstream): a word acts on the free group with its *last* letter applied
first, so ``artin_act(compose(a, b), w) == artin_act(a, artin_act(b, w))``
and ``permutation(compose(a, b)) == permutation(a) o permutation(b)``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A braid as a strand count plus a word in the signed Artin generators."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        for x in self.letters:
            if x == 0:
                raise ValueError("0 is not a braid letter")
            if abs(x) > self.strands - 1:
                raise ValueError(
                    f"letter {x} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def render(self) -> str:
        """Canonical text form: whitespace-separated signed integers."""
        return " ".join(str(x) for x in self.letters)

    def __str__(self) -> str:
        return self.render() if self.letters else "(empty)"


def braid_word(letters: Iterable[int], strands: int | None = None) -> BraidWord:
    """Build a BraidWord from letters, inferring strands when omitted."""
    letters = tuple(letters)
    if strands is None:
        if not letters:
            raise ValueError("cannot infer strand count of an empty braid")
        strands = max(abs(x) for x in letters) + 1
    return BraidWord(strands, letters)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed integers into a BraidWord.

    If ``strands`` is omitted it is inferred as max|letter| + 1; an empty
    word then has no inferable strand count and is rejected.
    """
    tokens = text.split()
    try:
        letters = tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise ValueError(f"bad braid letter in {text!r}: {exc}") from None
    return braid_word(letters, strands)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenate two braid words on the same strand count."""
    if a.strands != b.strands:
        raise ValueError(f"strand mismatch: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def invert(a: BraidWord) -> BraidWord:
    return BraidWord(a.strands, tuple(-x for x in reversed(a.letters)))


def conjugate(beta: BraidWord, alpha: BraidWord) -> BraidWord:
    """alpha^-1 . beta . alpha, as a plain concatenation."""
    if beta.strands != alpha.strands:
        raise ValueError(f"strand mismatch: {beta.strands} vs {alpha.strands}")
    return compose(compose(invert(alpha), beta), alpha)


def stabilize(beta: BraidWord, sign: int, after: bool = False) -> BraidWord:
    """Markov stabilization: sigma_n^sign prepended to the inclusion of beta.

    The new generator is placed before the included word by default; set
    ``after=True`` for the other (conjugate, hence Markov-equivalent) order.
    """
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    n = beta.strands
    gen = (sign * n,)
    letters = beta.letters + gen if after else gen + beta.letters
    return BraidWord(n + 1, letters)


def permutation(beta: BraidWord) -> tuple[int, ...]:
    """Image of beta under B_n -> S_n, sigma_i -> (i, i+1).

    Returned as the tuple (pi(1), ..., pi(n)).  With the composition
    convention fixed in this module, permutation(compose(a, b)) equals
    permutation(a) composed after permutation(b).
    """
    p = list(range(1, beta.strands + 1))
    # pi = t_|x1| o ... o t_|xL|, the last letter acting first, and
    # composing t_i on the right swaps the positions i and i + 1 of the tuple
    for x in beta.letters:
        i = abs(x)
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def is_knot_closure(beta: BraidWord) -> bool:
    """True when the closure of beta is a knot (one cycle in the permutation)."""
    perm = permutation(beta)
    seen = 1
    cur = perm[0]
    while cur != 1:
        cur = perm[cur - 1]
        seen += 1
    return seen == beta.strands


def free_cancel(a: BraidWord) -> BraidWord:
    """Cancel adjacent sigma_i^+1 sigma_i^-1 pairs until none remain."""
    out: list[int] = []
    for x in a.letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return BraidWord(a.strands, tuple(out))
