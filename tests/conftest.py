import random

import pytest

from l2burau import fkdet, torsion
from l2burau.braid import BraidWord, is_knot_closure, random_braid


def clear_t_free_caches():
    """Empty the (braid, family) caches of torsion and the root-solve cache
    of fkdet."""
    torsion._burau_rows.cache_clear()
    torsion._minus_identity.cache_clear()
    torsion._symbolic_det.cache_clear()
    fkdet._winding_roots.cache_clear()


@pytest.fixture(autouse=True)
def fresh_t_free_caches():
    """Start every test with empty caches, so a test that monkeypatches
    assembly never reads an earlier test's matrix."""
    clear_t_free_caches()


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
