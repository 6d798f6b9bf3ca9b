from fractions import Fraction

import pytest

from l2burau.braid import BraidWord, invert, random_braid
from l2burau.freegroup import (
    Basis,
    FreeWord,
    artin_act,
    change_of_basis,
    fox_derivative,
    fox_derivative_terms,
    parse_word,
    random_word,
    winding,
    word,
)
from l2burau.groupring import Free, GroupRingElement, TPoly


X = Basis.X
G = Basis.G


def brute_fox(u: FreeWord, i: int) -> dict[FreeWord, int]:
    """Independent oracle: apply the defining rules letter by letter.

    d(uv) = du + u dv, with d(x_j) = delta_ij and d(x_j^-1) = -delta_ij x_j^-1;
    processed right-to-left as d(w . a) = d(w) + w . d(a).
    """
    terms: dict[FreeWord, int] = {}
    prefix = FreeWord.identity(u.rank)
    for g, s in u.letters():
        letter = FreeWord.gen(u.rank, g, s)
        if g == i:
            if s > 0:
                contrib = {prefix: 1}
            else:
                contrib = {prefix * letter: -1}
            for k, c in contrib.items():
                terms[k] = terms.get(k, 0) + c
        prefix = prefix * letter
    return {k: c for k, c in terms.items() if c}


def test_fox_product_rule_example():
    u = parse_word("x1 x2", 2)
    assert fox_derivative_terms(u, 2) == {parse_word("x1", 2): 1}


def test_fox_inverse_example():
    u = parse_word("x1^-1", 1)
    assert fox_derivative_terms(u, 1) == {u: -1}


def test_fox_conjugate_example():
    # derived by brute-force rule application
    u = parse_word("x1 x2 x1^-1", 2)
    expected = brute_fox(u, 1)
    assert expected == {FreeWord.identity(2): 1, u: -1}
    assert fox_derivative_terms(u, 1) == expected


def test_fox_matches_brute_oracle(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        u = random_word(rng, n, rng.randint(0, 20))
        i = rng.randint(1, n)
        assert fox_derivative_terms(u, i) == brute_fox(u, i)


def test_fox_index_range():
    with pytest.raises(ValueError):
        fox_derivative_terms(parse_word("x1", 2), 3)


def test_fox_wrapped_element():
    e = fox_derivative(parse_word("x1 x2", 2), 2)
    assert e == GroupRingElement(Free(2), {parse_word("x1", 2): TPoly.const(1)})


def test_augmentation_examples():
    grp = Free(2)
    e = GroupRingElement(
        grp,
        {parse_word("x1", 2): TPoly.const(1), parse_word("x2", 2): TPoly.const(-1)},
    )
    assert e.augmentation() == TPoly.zero()
    f = GroupRingElement(
        grp,
        {FreeWord.identity(2): TPoly.const(3), parse_word("x1 x2", 2): TPoly.const(2)},
    )
    assert f.augmentation() == TPoly.const(5)


def fundamental_formula_check(u: FreeWord) -> bool:
    """sum_i d(u)/dx_i (x_i - 1) == u - aug(u) in the integer group ring."""
    n = u.rank
    grp = Free(n)
    total = GroupRingElement.zero(grp)
    for i in range(1, n + 1):
        xi = FreeWord.gen(n, i)
        factor = GroupRingElement(
            grp, {xi: TPoly.const(1), FreeWord.identity(n): TPoly.const(-1)}
        )
        total = total + fox_derivative(u, i) * factor
    rhs = GroupRingElement(grp, {u: TPoly.const(1)}) + GroupRingElement(
        grp, {FreeWord.identity(n): TPoly.const(-1)}
    )
    return total == rhs


def test_fundamental_formula(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        u = random_word(rng, n, rng.randint(1, 40))
        assert fundamental_formula_check(u)


def test_artin_act_generators():
    assert artin_act(BraidWord(2, (1,)), parse_word("x1", 2), X) == parse_word(
        "x1 x2 x1^-1", 2
    )
    assert artin_act(BraidWord(2, (-1,)), parse_word("x1", 2), X) == parse_word(
        "x2", 2
    )


def test_artin_act_counterexample_word():
    b = BraidWord(3, (-1, 2))
    assert artin_act(b, parse_word("g2", 3), G) == parse_word("g3 g2^-1 g1^-1 g2", 3)


def test_artin_anti_multiplicative(rng):
    from l2burau.braid import compose

    for _ in range(25):
        n = rng.randint(2, 4)
        a, b = random_braid(rng, n, 4), random_braid(rng, n, 4)
        w = random_word(rng, n, 5)
        for basis in (X, G):
            assert artin_act(compose(a, b), w, basis) == artin_act(
                a, artin_act(b, w, basis), basis
            )


def test_artin_fixes_gn(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        b = random_braid(rng, n, 6)
        gn = FreeWord.gen(n, n)
        assert artin_act(b, gn, G) == gn
        # and the same fact seen through the x-basis
        gx = change_of_basis(gn, G, X)
        assert artin_act(b, gx, X) == gx


def test_artin_is_automorphism(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        b = random_braid(rng, n, 5)
        w = random_word(rng, n, 6)
        for basis in (X, G):
            assert artin_act(invert(b), artin_act(b, w, basis), basis) == w


def test_artin_bases_conjugate(rng):
    # the g-basis action is the x-basis action read through change_of_basis
    for _ in range(25):
        n = rng.randint(2, 4)
        b = random_braid(rng, n, 4)
        w = random_word(rng, n, 4)
        via_x = change_of_basis(
            artin_act(b, change_of_basis(w, G, X), X), X, G
        )
        assert via_x == artin_act(b, w, G)


def test_change_of_basis_examples():
    assert change_of_basis(parse_word("g2", 2), G, X) == parse_word("x1 x2", 2)
    assert change_of_basis(parse_word("x2", 2), X, G) == parse_word("g1^-1 g2", 2)


def test_change_of_basis_round_trip(rng):
    for _ in range(1000):
        n = rng.randint(1, 5)
        w = random_word(rng, n, rng.randint(0, 12))
        assert change_of_basis(change_of_basis(w, X, G), G, X) == w


def test_word_reduction_laws(rng):
    for _ in range(50):
        w = random_word(rng, 3, 10)
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).is_identity()


def test_winding_weights():
    assert winding(parse_word("x1 x2 x1^-1", 3), X) == 1
    assert winding(parse_word("g3 g2^-1", 3), G) == 1
    assert winding(parse_word("g2 g1^-1", 2), G) == 1


def test_render_parse():
    w = parse_word("x1 x2^-1 x1^3", 2)
    assert w.render("x") == "x1 x2^-1 x1^3"
    assert word(2, [(1, 1), (1, 2)]).syllables == ((1, 3),)
