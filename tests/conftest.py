import random

import pytest

from l2burau import fkdet, torsion
from l2burau.braid import BraidWord, is_knot_closure
from l2burau.freegroup import FreeWord, word


def clear_t_free_caches():
    """Empty the (braid, family) caches of torsion, its generator-column
    cache, and the root-solve cache of fkdet."""
    torsion._burau_rows.cache_clear()
    torsion._symbolic_det.cache_clear()
    torsion._generator_column.cache_clear()
    fkdet._winding_roots.cache_clear()


@pytest.fixture(autouse=True)
def fresh_t_free_caches():
    """Start every test with empty caches, so a test that monkeypatches
    assembly never reads an earlier test's matrix."""
    clear_t_free_caches()


def random_braid(rng: random.Random, strands: int, length: int) -> BraidWord:
    """Uniform random word of the given length."""
    gens = [i for i in range(1, strands)] + [-i for i in range(1, strands)]
    return BraidWord(strands, tuple(rng.choice(gens) for _ in range(length)))


def random_word(rng: random.Random, rank: int, length: int) -> FreeWord:
    """Random reduced word of roughly the requested length."""
    letters: list[tuple[int, int]] = []
    for _ in range(length):
        g = rng.randint(1, rank)
        e = rng.choice((1, -1))
        letters.append((g, e))
    return word(rank, letters)


def random_knot_braid(rng: random.Random, strands: int, max_len: int) -> BraidWord:
    """Random braid whose closure is a knot.

    The permutation of a length-L word is a product of L transpositions,
    so only lengths with L = strands - 1 (mod 2) can give an n-cycle.
    """
    lengths = [
        L
        for L in range(max(1, strands - 1), max_len + 1)
        if (L - (strands - 1)) % 2 == 0
    ]
    while True:
        b = random_braid(rng, strands, rng.choice(lengths))
        if is_knot_closure(b):
            return b


@pytest.fixture
def rng():
    return random.Random(20260808)
