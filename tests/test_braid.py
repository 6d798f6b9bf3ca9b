import pytest

from l2burau.braid import (
    BraidWord,
    braid_word,
    compose,
    conjugate,
    free_cancel,
    invert,
    parse_braid,
    permutation,
    stabilize,
)
from conftest import random_braid
from oracles import exponent_sum


def test_parse_simple():
    b = parse_braid("1 1 1", 2)
    assert b == BraidWord(2, (1, 1, 1))


def test_parse_counterexample_braid():
    b = parse_braid("-1 2", 3)
    assert b.strands == 3 and b.letters == (-1, 2)


def test_parse_infers_strands():
    b = parse_braid("1 -2 1 -2")
    assert b.strands == 3


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_braid("1 0 2")
    with pytest.raises(ValueError):
        parse_braid("3", 2)
    with pytest.raises(ValueError):
        parse_braid("")
    assert parse_braid("", 3).letters == ()


def test_parse_render_round_trip(rng):
    for _ in range(50):
        b = random_braid(rng, rng.randint(2, 5), rng.randint(0, 10))
        assert parse_braid(b.render(), b.strands) == b


def test_conjugate_by_itself():
    b = BraidWord(2, (1,))
    c = conjugate(b, b)
    assert c.letters == (-1, 1, 1)
    assert free_cancel(c) == b


def test_conjugate_concatenation():
    c = conjugate(BraidWord(3, (1, 2)), BraidWord(3, (2,)))
    assert c.letters == (-2, 1, 2, 2)


def test_conjugate_strand_mismatch():
    with pytest.raises(ValueError):
        conjugate(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_conjugate_preserves_exponent_sum(rng):
    for _ in range(30):
        n = rng.randint(2, 4)
        b = random_braid(rng, n, 6)
        a = random_braid(rng, n, 6)
        assert exponent_sum(conjugate(b, a)) == exponent_sum(b)


def test_stabilize_prepends_generator():
    b = stabilize(BraidWord(2, (-1,)), +1)
    assert b == BraidWord(3, (2, -1))
    assert stabilize(BraidWord(1, ()), +1) == BraidWord(2, (1,))


def test_stabilize_after_flag():
    assert stabilize(BraidWord(2, (-1,)), +1, after=True) == BraidWord(3, (-1, 2))


def test_stabilize_sign_checked():
    with pytest.raises(ValueError):
        stabilize(BraidWord(2, (1,)), 2)


def test_stabilize_permutation_relation(rng):
    # the new strand joins via the transposition (n, n+1) applied outermost
    for _ in range(20):
        n = rng.randint(2, 4)
        b = random_braid(rng, n, 5)
        sign = rng.choice((1, -1))
        ps = permutation(stabilize(b, sign))
        pb = permutation(b)
        tau = lambda v: n + 1 if v == n else (n if v == n + 1 else v)
        expected = tuple(tau(v) for v in pb) + (n,)
        assert ps == expected


def test_permutation_examples():
    assert permutation(BraidWord(2, (1,))) == (2, 1)
    assert permutation(BraidWord(3, (1, 2))) == (2, 3, 1)  # 3-cycle 1->2->3->1
    assert permutation(BraidWord(2, (1, 1))) == (1, 2)


def test_permutation_homomorphism(rng):
    # fixed convention: perm(compose(a, b)) = perm(a) o perm(b)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = random_braid(rng, n, 6)
        b = random_braid(rng, n, 6)
        pa, pb = permutation(a), permutation(b)
        assert permutation(compose(a, b)) == tuple(pa[pb[i] - 1] for i in range(n))


def test_invert_cancels(rng):
    for _ in range(30):
        b = random_braid(rng, rng.randint(2, 5), 8)
        assert free_cancel(compose(b, invert(b))).letters == ()


def test_exponent_sum_additive(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        a, b = random_braid(rng, n, 6), random_braid(rng, n, 6)
        assert exponent_sum(compose(a, b)) == exponent_sum(a) + exponent_sum(b)


def test_braid_word_infers():
    assert braid_word([1, -2]).strands == 3
    with pytest.raises(ValueError):
        braid_word([])
