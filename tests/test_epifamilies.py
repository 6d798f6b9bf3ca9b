import itertools

import pytest

from l2burau.braid import BraidWord, compose, permutation, random_braid
from l2burau.epifamilies import (
    AbelianImage,
    Identity,
    TotalWinding,
    check_admissibility,
    family_by_name,
    twist,
)
from l2burau.freegroup import Basis, FreeWord, artin_act, parse_word, random_word
from l2burau.groupring import Free, FreeAbelian, Integers


X = Basis.X


def test_apply_examples():
    ab = AbelianImage()
    assert ab.apply(parse_word("x1 x2 x1^-1", 2), 2, X) == (0, 1)
    phi = TotalWinding()
    assert phi.apply(parse_word("g3 g2^-1", 3), 3, Basis.G) == 1
    w = parse_word("x1 x2", 3)
    assert Identity().apply(w, 3, X) == w


def test_targets():
    assert TotalWinding().target(4) == Integers()
    assert AbelianImage().target(3) == FreeAbelian(3)
    assert Identity().target(3) == Free(3)


def test_rank_mismatch():
    with pytest.raises(ValueError):
        AbelianImage().apply(parse_word("x1", 2), 3, X)


def test_chi_abelianization_swap():
    chi = AbelianImage().chi_map(BraidWord(2, (1,)))
    assert chi((1, 0)) == (0, 1)
    assert chi((0, 1)) == (1, 0)


def test_chi_total_winding_identity():
    chi = TotalWinding().chi_map(BraidWord(3, (1, -2, 1)))
    assert chi(5) == 5


def test_chi_identity_family_is_artin():
    alpha = BraidWord(2, (1,))
    chi = Identity().chi_map(alpha)
    x1 = parse_word("x1", 2)
    assert chi(x1) == artin_act(alpha, x1, X)


def test_chi_squares(rng):
    # Q o h_alpha == chi o Q on every generator
    for fam in (Identity(), TotalWinding(), AbelianImage()):
        for _ in range(20):
            n = rng.randint(2, 4)
            alpha = random_braid(rng, n, 5)
            chi = fam.chi_map(alpha)
            for i in range(1, n + 1):
                xi = FreeWord.gen(n, i)
                assert fam.apply(artin_act(alpha, xi, X), n, X) == chi(
                    fam.apply(xi, n, X)
                )


def test_chi_multiplicative_on_generator_pairs():
    # chi respects composition the same way permutations do
    fam = AbelianImage()
    for n in (3, 4):
        for i in range(1, n):
            for j in range(1, n):
                a = BraidWord(n, (i,))
                b = BraidWord(n, (j,))
                ab = compose(a, b)
                v = tuple(range(n))
                lhs = fam.chi_map(ab)(v)
                rhs = fam.chi_map(a)(fam.chi_map(b)(v))
                assert lhs == rhs


def test_admissibility_random(rng):
    # one hundred cases per family and rank
    for fam in (Identity(), TotalWinding(), AbelianImage()):
        for n in (2, 3, 4):
            for _ in range(100):
                beta = random_braid(rng, n, 6)
                alpha = random_braid(rng, n, 6)
                rep = check_admissibility(fam, beta, alpha)
                assert rep.passed, rep


def test_admissibility_reports_strand_mismatch():
    with pytest.raises(ValueError):
        check_admissibility(TotalWinding(), BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_sigma_maps():
    assert TotalWinding().sigma(3, 2) == 3
    assert AbelianImage().sigma((1, 2), 2) == (1, 2, 0)
    w = parse_word("x1 x2", 2)
    assert Identity().sigma(w, 2) == w.with_rank(3)


def test_custom_family():
    fam = AbelianImage([[1], [1], [1]])  # rank-3 total winding in disguise
    assert fam.apply(parse_word("x1 x2 x3", 3), 3, X) == (3,)
    rep = check_admissibility(fam, BraidWord(3, (1, 2)), BraidWord(3, (-2,)))
    assert rep.conjugation_ok
    assert rep.stabilization_ok is None  # no extension beyond its own rank

    skew = AbelianImage([[1, 0], [2, 0]])  # conjugation cannot permute these
    rep = check_admissibility(skew, BraidWord(2, (1,)), BraidWord(2, (1,)))
    assert not rep.conjugation_ok

    with pytest.raises(ValueError):
        fam.apply(parse_word("x1", 2), 2, X)


def test_custom_chi_refuses_non_integer_images():
    # images (2,0), (0,1) span an index-2 lattice: C = [[0, 2], [1/2, 0]]
    chi = AbelianImage([[2, 0], [0, 1]]).chi_map(BraidWord(2, (1,)))
    assert chi((2, 0)) == (0, 1)
    assert chi((0, 1)) == (2, 0)
    with pytest.raises(ValueError, match="integer lattice"):
        chi((1, 0))


def test_custom_chi_and_twist_follow_the_artin_action(rng):
    # twist permutes the image rows and chi is solved from them; the Artin
    # action is the oracle for both
    independent = [
        AbelianImage([[1, 2], [3, 5]]),
        AbelianImage([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        AbelianImage([[1], [1], [1]]),  # equal rows: chi = 1
    ]
    # x4 goes to the sum of the other images: chi exists iff pi fixes 4
    summed = AbelianImage([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    solved = {fam: 0 for fam in independent + [summed]}
    for fam in solved:
        n = len(fam.rows)
        for _ in range(40):
            alpha = random_braid(rng, n, 6)
            beta = random_braid(rng, n, 6)
            words = [FreeWord.gen(n, i) for i in range(1, n + 1)]
            words.append(random_word(rng, n, 6))
            for w in words:
                moved = fam.apply(artin_act(alpha, w, X), n, X)
                assert twist(fam, alpha).apply(w, n, X) == moved
            rep = check_admissibility(fam, beta, alpha)
            if fam == summed and permutation(alpha)[3] != 4:
                with pytest.raises(ValueError):
                    fam.chi_map(alpha)
                assert not rep.conjugation_ok
                continue
            chi = fam.chi_map(alpha)
            for w in words:
                assert fam.apply(artin_act(alpha, w, X), n, X) == chi(fam.apply(w, n, X))
            assert rep.conjugation_ok and rep.stabilization_ok is None
            solved[fam] += 1
    assert [solved[fam] for fam in independent] == [40, 40, 40]
    assert 0 < solved[summed] < 40


def test_twist_shortcuts(rng):
    # twisted families agree with literal precomposition by the Artin map
    for _ in range(20):
        n = rng.randint(2, 4)
        prefix = random_braid(rng, n, 5)
        w = random_word(rng, n, 5)
        for fam in (TotalWinding(), AbelianImage()):
            tw = twist(fam, prefix)
            assert tw.apply(w, n, X) == fam.apply(artin_act(prefix, w, X), n, X)
        tid = twist(Identity(), prefix)
        assert tid.apply(w, n, X) == artin_act(prefix, w, X)


def test_twisted_identity_substitutes_images(rng):
    # twist(Identity(), p) is the Artin action of p in either basis, twists
    # compose, and a twisted identity has neither chi nor sigma
    for _ in range(20):
        n = rng.randint(2, 4)
        p1, p2 = random_braid(rng, n, 5), random_braid(rng, n, 4)
        tid = twist(Identity(), p1)
        for basis in (X, Basis.G):
            w = random_word(rng, n, 6)
            assert tid.apply(w, n, basis) == artin_act(p1, w, basis)
        both = twist(tid, p2)
        assert both == twist(Identity(), compose(p1, p2))
        assert hash(both) == hash(twist(Identity(), compose(p1, p2)))
        rep = check_admissibility(tid, random_braid(rng, n, 3), random_braid(rng, n, 3))
        assert (rep.family, rep.passed, rep.conjugation_ok) == ("twisted", False, False)
        assert rep.stabilization_ok is None and rep.first_failure.startswith("chi: ")


def test_twist_composes(rng):
    for _ in range(10):
        n = 3
        p1 = random_braid(rng, n, 4)
        p2 = random_braid(rng, n, 4)
        w = random_word(rng, n, 5)
        t2 = twist(twist(AbelianImage(), p1), p2)
        direct = AbelianImage().apply(
            artin_act(p1, artin_act(p2, w, X), X), n, X
        )
        assert t2.apply(w, n, X) == direct
        assert isinstance(t2, AbelianImage)


def test_family_by_name(tmp_path):
    assert isinstance(family_by_name("id"), Identity)
    assert isinstance(family_by_name("phi"), TotalWinding)
    assert family_by_name("ab") == AbelianImage()
    mat = tmp_path / "fam.txt"
    mat.write_text("1 0\n0 1\n")
    fam = family_by_name(f"custom:{mat}")
    assert isinstance(fam, AbelianImage) and fam.d == 2
    with pytest.raises(ValueError):
        family_by_name("nope")


def test_custom_file_must_span_the_lattice(tmp_path):
    # a file names an epimorphism only when its rows span Z^d
    mat = tmp_path / "fam.txt"
    for rows in ("2 0\n0 1\n", "1 0\n2 0\n"):
        mat.write_text(rows)
        with pytest.raises(ValueError, match="sublattice"):
            family_by_name(f"custom:{mat}")
    base = ((1, 0), (0, 1), (1, 1))
    for swap, s0, s1 in itertools.product((False, True), (1, -1), (1, -1)):
        rows = [(v[1], v[0]) if swap else v for v in base]
        mat.write_text("".join(f"{s0 * a} {s1 * b}\n" for a, b in rows))
        assert family_by_name(f"custom:{mat}").d == 2


def permuted(perm):
    """The abelianization twisted by a braid of strand permutation perm."""
    return AbelianImage(tuple(int(j == p) for j in range(1, len(perm) + 1)) for p in perm)


def test_families_hash_by_value():
    equal_pairs = [
        (Identity(), Identity()),
        (TotalWinding(), TotalWinding()),
        (AbelianImage(), AbelianImage()),
        (AbelianImage([[1, 0], [0, 1], [1, 1]]), AbelianImage(((1, 0), (0, 1), (1, 1)))),
        (permuted((2, 3, 1)), AbelianImage([[0, 1, 0], [0, 0, 1], [1, 0, 0]])),
        (twist(AbelianImage(), BraidWord(3, (1, 2))), permuted((2, 3, 1))),
    ]
    for a, b in equal_pairs:
        assert a == b and hash(a) == hash(b)
    beta = BraidWord(3, (1, -2))
    # as (braid, family) keys: equal families meet, distinct ones stay apart
    keys = {(beta, a) for a, _ in equal_pairs} | {(beta, b) for _, b in equal_pairs}
    assert len(keys) == len(equal_pairs) - 1  # the twist equals the permuted pair
    perms = list(itertools.permutations((1, 2, 3)))
    assert len({(beta, permuted(p)) for p in perms}) == len(perms)
    assert AbelianImage([[1, 0], [0, 1]]) != AbelianImage([[0, 1], [1, 0]])
