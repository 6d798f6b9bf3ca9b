import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_braid, random_word
from l2burau import groupring
from l2burau.braid import BraidWord, braid_word
from l2burau.epifamilies import AbelianImage, Identity, TotalWinding, twist
from l2burau.freegroup import Basis, FreeWord, parse_word
from l2burau.groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
    is_commutative,
)

from l2burau.torsion import reduced_burau
from oracles import (
    adjoint,
    block_assemble,
    coefficients_at,
    det_at,
    evaluate,
    gaussian_det,
    generator_matrix,
    kappa,
    kappa_of_terms,
    matmul,
    mul,
    phi_burau_at,
    scale,
    vn_trace,
    zeros,
)


def rand_element(rng, grp, n_terms=3, rank=2, draw=None):
    terms = {}
    for _ in range(n_terms):
        w = draw(rng) if draw else random_word(rng, rank, rng.randint(0, 4))
        terms[w] = TPoly(
            {rng.randint(-2, 2): Fraction(rng.randint(-3, 3))}
        )
    return GroupRingElement(grp, terms)


def test_tpoly_arithmetic():
    # a TPoly keeps Fractions and drops zeros; t enters through elements
    assert TPoly({0: 0, 2: 3}).coeffs == {2: Fraction(3)}
    a = GroupRingElement(Integers(), {0: TPoly({1: 2, 0: 1})})
    b = GroupRingElement(Integers(), {0: TPoly({-1: Fraction(1, 2)})})
    assert mul(a, b).terms[0].coeffs == {0: Fraction(1), -1: Fraction(1, 2)}
    assert (a - a).is_zero()
    assert coefficients_at(a, Fraction(1, 2)) == {0: Fraction(2)}
    with pytest.raises(ValueError):
        coefficients_at(a, 0)


def test_vn_trace_examples():
    grp = Free(1)
    x = FreeWord.gen(1, 1)
    e = GroupRingElement(
        grp, {FreeWord.identity(1): TPoly({0: 3}), x: TPoly({0: 2})}
    )
    assert vn_trace(e) == TPoly({0: 3})
    assert vn_trace(GroupRingElement(grp, {x: TPoly({0: 1})})) == TPoly()


def test_vn_trace_commutes(rng):
    grp = Free(2)
    for _ in range(30):
        e = rand_element(rng, grp)
        f = rand_element(rng, grp)
        assert vn_trace(mul(e, f)) == vn_trace(mul(f, e))


def test_trace_of_matrix_sums_diagonal():
    grp = Integers()
    m = GroupRingMatrix.identity(grp, 3)
    assert vn_trace(m) == TPoly({0: 3})
    with pytest.raises(ValueError):
        vn_trace(zeros(grp, 2, 3))


def test_kappa_total_winding():
    e = kappa(parse_word("g2 g1^-1", 2), TotalWinding(), 2, Basis.G)
    assert e == GroupRingElement(Integers(), {1: TPoly({1: 1})})


def test_kappa_identity_family():
    e = kappa(parse_word("g1^-1", 3), Identity(), 3, Basis.G)
    assert e == GroupRingElement(Free(3), {parse_word("g1^-1", 3): TPoly({-1: 1})})


def test_kappa_linear_extension():
    # the twisting map applied to a Fox-derivative style sum of words
    terms = {
        parse_word("g2 g1^-1", 2): Fraction(-1),
        FreeWord.identity(2): Fraction(2),
    }
    e = kappa_of_terms(terms, TotalWinding(), 2, Basis.G)
    assert e == GroupRingElement(Integers(), {1: TPoly({1: -1}), 0: TPoly({0: 2})})


def test_kappa_empty_word():
    e = kappa(FreeWord.identity(2), TotalWinding(), 2, Basis.G)
    assert e == GroupRingElement.one(Integers())


# ring-law groups: the commutative ones run on the kernel's packed int
# keys (negative exponents included), Free(2) on (word, exponent) pairs
RING_GROUPS = {
    "integers": (Integers(), lambda rng: rng.randint(-3, 3)),
    "free_abelian_3": (
        FreeAbelian(3),
        lambda rng: tuple(rng.randint(-2, 2) for _ in range(3)),
    ),
    "free_2": (Free(2), lambda rng: random_word(rng, 2, rng.randint(0, 4))),
}


@pytest.mark.parametrize("name", sorted(RING_GROUPS))
def test_adjoint_involution_and_antimultiplicative(rng, name):
    grp, draw = RING_GROUPS[name]
    for _ in range(20):
        a, b, c = (rand_element(rng, grp, draw=draw) for _ in range(3))
        assert adjoint(adjoint(a)) == a
        assert adjoint(mul(a, b)) == mul(adjoint(b), adjoint(a))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b._plus(c, 1)) == mul(a, b)._plus(mul(a, c), 1)
        assert mul(a - b, c) == mul(a, c) - mul(b, c)


@pytest.mark.parametrize("name", sorted(RING_GROUPS))
def test_matrix_adjoint_law(rng, name):
    grp, draw = RING_GROUPS[name]

    def rand_matrix(rows, cols):
        return GroupRingMatrix(
            grp, [[rand_element(rng, grp, draw=draw) for _ in range(cols)] for _ in range(rows)]
        )

    def opp(X, Y):
        return matmul(X, Y, opposite=True)

    for _ in range(10):
        A, A2 = rand_matrix(2, 3), rand_matrix(2, 3)
        B, B2 = rand_matrix(3, 2), rand_matrix(3, 2)
        C = rand_matrix(2, 2)
        assert adjoint(matmul(A, B)) == matmul(adjoint(B), adjoint(A))
        assert adjoint(opp(A, B)) == opp(adjoint(B), adjoint(A))
        assert matmul(matmul(A, B), C) == matmul(A, matmul(B, C))
        assert opp(opp(A, B), C) == opp(A, opp(B, C))
        assert matmul(A, B - B2) == matmul(A, B) - matmul(A, B2)
        assert opp(A - A2, B) == opp(A, B) - opp(A2, B)
        if is_commutative(grp):
            assert opp(A, B) == matmul(A, B)


def test_generator_inverse_pair_is_identity():
    # the positive table matrix against the twisted negative one
    m_pos = generator_matrix(2, 1, 1, Identity())
    m_neg = generator_matrix(2, 1, -1, twist(Identity(), braid_word([1], 2)))
    assert matmul(m_pos, m_neg, opposite=True) == GroupRingMatrix.identity(Free(2), 1)


def test_ball_support_bound(rng):
    grp = Free(2)
    for _ in range(20):
        a = rand_element(rng, grp, n_terms=3)
        b = rand_element(rng, grp, n_terms=3)
        ra = max((w.length() for w in a.terms), default=0)
        rb = max((w.length() for w in b.terms), default=0)
        prod = mul(a, b)
        assert all(w.length() <= ra + rb for w in prod.terms)


def test_positive_trace_identity(rng):
    grp = Free(2)
    t0 = Fraction(3, 2)
    for _ in range(20):
        a = rand_element(rng, grp)
        tr = coefficients_at(mul(adjoint(a), a), t0).get(FreeWord.identity(2), 0)
        expected = sum(c**2 for c in coefficients_at(a, t0).values())
        assert tr == expected
        assert tr >= 0
        if tr == 0:
            assert coefficients_at(a, t0) == {}


def test_block_assemble():
    grp = Integers()
    A = GroupRingMatrix.identity(grp, 2)
    B = GroupRingMatrix.identity(grp, 1)
    C = zeros(grp, 2, 1)
    D = zeros(grp, 1, 2)
    m = block_assemble([[A, C], [D, B]])
    assert m == GroupRingMatrix.identity(grp, 3)
    with pytest.raises(ValueError):
        block_assemble([[A, B]])


def test_matrix_dimension_errors():
    grp = Integers()
    A = GroupRingMatrix.identity(grp, 2)
    B = GroupRingMatrix.identity(grp, 3)
    with pytest.raises(ValueError):
        matmul(A, B)
    with pytest.raises(ValueError):
        A - B


def test_determinant_commutative_only():
    A = GroupRingMatrix.identity(Free(2), 2)
    with pytest.raises(ValueError):
        A.determinant()


def test_determinant_small():
    grp = Integers()
    z = GroupRingElement(grp, {1: TPoly({0: 1})})
    one = GroupRingElement.one(grp)
    m = GroupRingMatrix(grp, [[z, one], [one, z]])
    det = m.determinant()
    assert det == GroupRingElement(grp, {2: TPoly({0: 1}), 0: TPoly({0: -1})})


# the three commutative targets: a random group element, and its value at
# z (one unit complex number per torus coordinate)
DET_GROUPS = {
    "integers": (
        Integers(),
        lambda rng: rng.randint(-2, 2),
        lambda g, z: z[0] ** g,
    ),
    "free_abelian_2": (
        FreeAbelian(2),
        lambda rng: (rng.randint(-2, 2), rng.randint(-1, 1)),
        lambda g, z: z[0] ** g[0] * z[1] ** g[1],
    ),
    "free_1": (
        Free(1),
        lambda rng: FreeWord.gen(1, 1) ** rng.randint(-2, 2),
        lambda g, z: z[0] ** sum(e for _, e in g.syllables),
    ),
}


def _rand_det_entry(rng, grp, draw):
    if rng.random() < 0.3:
        return GroupRingElement.zero(grp)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        coeff = (
            Fraction(rng.randint(-3, 3), rng.choice((2, 3, 5)))
            if rng.random() < 0.4
            else rng.randint(-3, 3)
        )
        terms.setdefault(draw(rng), {})[rng.randint(-2, 2)] = coeff
    return GroupRingElement(grp, {g: TPoly(cs) for g, cs in terms.items()})


def _evaluate_entry(e, at, t, z):
    return sum(
        float(c) * t**k * at(g, z) for g, tp in e.terms.items() for k, c in tp.coeffs.items()
    )


@pytest.mark.parametrize("name", sorted(DET_GROUPS))
def test_determinant_matches_numeric_oracle(name):
    grp, draw, at = DET_GROUPS[name]
    rng = random.Random(f"det-oracle-{name}")
    mats = []
    for size in (1, 2, 3, 4, 5, 6):
        mats.append(
            [[_rand_det_entry(rng, grp, draw) for _ in range(size)] for _ in range(size)]
        )
    # a singular one: the last row is a group-ring multiple of the first
    # plus the second
    sing = [[_rand_det_entry(rng, grp, draw) for _ in range(4)] for _ in range(3)]
    factor = _rand_det_entry(rng, grp, draw)
    sing.append([mul(factor, a)._plus(b, 1) for a, b in zip(sing[0], sing[1])])
    mats.append(sing)
    for entries in mats:
        det = GroupRingMatrix(grp, entries).determinant()
        assert all(
            type(c) is Fraction for tp in det.terms.values() for c in tp.coeffs.values()
        )
        if entries is sing:
            assert det.is_zero()
        for _ in range(3):
            t = rng.uniform(0.3, 3.0)
            z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)]
            num = np.array(
                [[_evaluate_entry(e, at, t, z) for e in row] for row in entries],
                dtype=complex,
            )
            want = np.linalg.det(num)
            got = _evaluate_entry(det, at, t, z)
            if entries is sing:  # against the Hadamard bound of the rows
                assert abs(want) <= 1e-9 * float(np.prod(np.linalg.norm(num, axis=1)))
            else:
                assert abs(got - want) <= 1e-9 * max(abs(want), 1.0), (len(entries), got, want)


def _cofactor_det(entries, grp):
    """Plain cofactor expansion along the first row, nothing shared."""
    if not entries:
        return GroupRingElement.one(grp)
    out = GroupRingElement.zero(grp)
    for j, a in enumerate(entries[0]):
        if a.is_zero():
            continue
        term = mul(a, _cofactor_det([row[:j] + row[j + 1 :] for row in entries[1:]], grp))
        out = out._plus(term, 1 if j % 2 == 0 else -1)
    return out


@pytest.mark.parametrize("name", sorted(DET_GROUPS))
def test_determinant_matches_cofactor_expansion(name):
    grp, draw, _ = DET_GROUPS[name]
    rng = random.Random(f"det-cofactor-{name}")
    zero = GroupRingElement.zero(grp)
    mats = [
        [[_rand_det_entry(rng, grp, draw) for _ in range(size)] for _ in range(size)]
        for size in range(1, 8)
    ]
    # zero patterns that leave column masks unreachable: block triangular,
    # banded, one nonzero entry per row, and a zero row
    for size, keep in (
        (7, lambda r, c: c >= r or (r >= 4 and c >= 4)),
        (6, lambda r, c: abs(r - c) <= 1),
        (7, lambda r, c: c == (3 * r + 2) % 7),
        (5, lambda r, c: r != 2),
    ):
        mats.append(
            [
                [
                    _rand_det_entry(rng, grp, draw) if keep(r, c) else zero
                    for c in range(size)
                ]
                for r in range(size)
            ]
        )
    for entries in mats:
        got = GroupRingMatrix(grp, entries).determinant()
        assert got == _cofactor_det(entries, grp), len(entries)


@pytest.mark.parametrize("family", [TotalWinding(), AbelianImage()], ids=["phi", "ab"])
def test_burau_determinant_matches_cofactor_expansion(family):
    # 3 x 3 matrices E = Burau - Id on 4 strands: the kernel's Laplace
    # expansion against cofactors multiplied out by the oracle product
    rng = random.Random(f"burau-cofactor-{family.name}")
    for _ in range(12):
        B = reduced_burau(random_braid(rng, 4, rng.randint(1, 12)), family).matrix
        E = B - GroupRingMatrix.identity(B.group, 3)
        assert E.determinant() == _cofactor_det(E.entries, B.group)


def test_render_formats():
    grp = Free(2)
    e = GroupRingElement(
        grp,
        {
            FreeWord.identity(2): TPoly({0: 1}),
            parse_word("g2 g1^-1", 2): TPoly({1: -1}),
        },
    )
    assert e.render("g") == "1 [e] + (-1)t^1 [g2 g1^-1]"
    obj = e.to_json_obj("g")
    assert {"elem": "e", "coeffs": {"0": "1"}} in obj


def test_json_matrix_round_trip():
    import json

    grp = FreeAbelian(2)
    e = GroupRingElement(grp, {(1, 0): TPoly({2: Fraction(1, 3)})})
    m = GroupRingMatrix(grp, [[e]])
    text = json.dumps(m.to_json_obj())
    back = json.loads(text)
    assert back["entries"][0][0][0] == {"elem": "z1", "coeffs": {"2": "1/3"}}


# --- the kernel's integer path ------------------------------------------------
#
# Over phi, constants and other one-line supports every entry is one int
# (see groupring._LineMatrix).  These tests check it against oracles that never
# run through the kernel: Fraction evaluation at rational points, Gaussian
# elimination, and the classical Burau generator matrices multiplied out.


def _ring_of(M):
    rows = [[groupring._flat(e) for e in row] for row in M.entries]
    line = groupring._line_entries(M.group, rows)
    if line is None:
        return groupring._kernel(M.group, rows)[1]
    return groupring._det_pack(M.group, *line)[2]


POINTS = ((Fraction(2), Fraction(1, 3)), (Fraction(-3, 2), Fraction(5, 7)), (Fraction(7, 5), Fraction(-2)))


def test_integer_path_phi_burau_and_determinant_match_fraction_oracles():
    rng = random.Random("int-path-phi")
    for case in range(60):
        n = 2 + case % 7
        beta = random_braid(rng, n, rng.randint(0, 70))
        B = reduced_burau(beta, TotalWinding()).matrix
        E = B - GroupRingMatrix.identity(B.group, n - 1)
        assert isinstance(_ring_of(E), groupring._IntRing)
        D = E.determinant()
        for z0, t0 in POINTS:
            want = phi_burau_at(beta, z0 * t0)
            assert [[evaluate(e, (z0,), t0) for e in row] for row in B.entries] == want
            assert evaluate(D, (z0,), t0) == det_at(E, (z0,), t0), (case, beta.render())


def test_balanced_digits_at_the_ends_of_their_range():
    rng = random.Random("digits")
    for bits in (2, 3, 7, 30, 64, 65):
        top = (1 << (bits - 1)) - 1  # the largest digit the kernel's bound allows
        for count in [12] * 30 + [200] * 5:
            digits = [rng.choice((-top, top, -1, 0, 1, rng.randint(-top, top)))
                      for _ in range(rng.randint(1, count))]
            while digits and not digits[-1]:
                digits.pop()
            x = sum(d << (bits * i) for i, d in enumerate(digits))
            assert groupring._balanced_digits(x, bits) == digits


def test_integer_path_negative_exponents_and_large_coefficients_of_both_signs():
    grp = Integers()
    rng = random.Random("int-path-wide")

    def mono(c, k):  # c (z t)^k, on the line of phi
        return GroupRingElement(grp, {k: TPoly({k: c})})

    def entry(big):
        e = GroupRingElement.zero(grp)
        for _ in range(rng.randint(0, 3)):
            c = rng.choice((big - 1, -big, big, 1 - big, rng.randint(-big, big)))
            e = e._plus(mono(c, rng.randint(-6, 3)), 1)
        return e

    for size in (1, 2, 3, 4, 5):
        for _ in range(6):
            big = 1 << rng.choice((20, 62, 63, 64, 200))
            M = GroupRingMatrix(grp, [[entry(big) for _ in range(size)] for _ in range(size)])
            assert isinstance(_ring_of(M), groupring._IntRing)
            D = M.determinant()
            for z0, t0 in POINTS:
                assert evaluate(D, (z0,), t0) == det_at(M, (z0,), t0)
    # a triangular matrix: the product of its diagonal, to the last digit
    diag = [mono(-(1 << 64) + 1, -5), mono(1 << 64, 2), mono(-(1 << 63), -1)]
    tri = GroupRingMatrix(
        grp, [[diag[r] if r == c else mono(c + 1, r - 3) if c > r else mono(0, 0)
               for c in range(3)] for r in range(3)]
    )
    assert tri.determinant() == mono(((1 << 64) - 1) << 127, -4)


def test_integer_path_degenerate_shapes():
    grp = Integers()
    assert GroupRingMatrix(grp, []).determinant() == GroupRingElement.one(grp)
    for n in (1, 3):
        assert zeros(grp, n, n).determinant().is_zero()
    e = GroupRingElement(grp, {-2: TPoly({-2: 5}), 0: TPoly({0: -7})})
    assert GroupRingMatrix(grp, [[e]]).determinant() == e
    # constant matrices: every exponent vector is 0
    rng = random.Random("int-path-const")
    one = GroupRingElement.one(grp)
    for size in range(1, 7):
        rows = [[rng.randint(-10**12, 10**12) for _ in range(size)] for _ in range(size)]
        M = GroupRingMatrix(grp, [[scale(one, x) for x in row] for row in rows])
        assert isinstance(_ring_of(M), groupring._IntRing)
        assert M.determinant() == scale(one, gaussian_det([[Fraction(x) for x in row] for row in rows]))


def _line_matrix(rows, bits):
    """Flat entries on the phi line as a groupring._LineMatrix of the given
    width, each column divided by its lowest power."""
    offsets = [min((k for d in col for k, _ in d), default=0) for col in zip(*rows)]
    ints = [
        [sum(c << bits * (k - off) for (k, _), c in d.items()) for d, off in zip(row, offsets)]
        for row in rows
    ]
    return groupring._LineMatrix(groupring._IntRing(Integers(), [1, 1], bits), ints, offsets)


def test_determinant_coefficients_lie_within_the_hadamard_width():
    # Hadamard's bound caps every coefficient of a determinant and is never
    # wider than the one-term-per-row product; _laplace reads det back at
    # its width, from flat rows and from the fold's encoding alike
    grp = Integers()
    rng = random.Random("hadamard")
    for size in range(1, 7):
        for _ in range(10):
            rows = [[{} for _ in range(size)] for _ in range(size)]
            for d in (d for row in rows for d in row):
                for _ in range(rng.randint(0, 3)):
                    k, c = rng.randint(-4, 4), rng.choice((-9, -1, 1, 9, rng.randint(-9, 9)))
                    if c:
                        d[k, k] = c
            norms = [[sum(map(abs, d.values())) for d in row] for row in rows]
            bound = groupring._hadamard(norms)
            assert bound <= math.prod(1 + sum(row) for row in norms)  # one term per row
            D = groupring._laplace(grp, rows)
            assert all(abs(c) <= bound for c in D.values())
            assert groupring._laplace(grp, _line_matrix(rows, 6)) == D
            M = GroupRingMatrix(grp, [[groupring._unflat(grp, d) for d in row] for row in rows])
            for z0, t0 in POINTS:
                assert evaluate(groupring._unflat(grp, D), (z0,), t0) == det_at(M, (z0,), t0)
    # the order-4 Sylvester matrix meets the bound: |det| = 16 = sqrt(4^4)
    sylvester = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    rows = [[{(0, 0): x} for x in row] for row in sylvester]
    assert groupring._hadamard([[1] * 4] * 4) == 16
    assert groupring._laplace(grp, rows) == {(0, 0): 16}
    line = _line_matrix(rows, 3)
    assert line.det_rows()[2].bits == 6  # bitlen(16) + 1
    assert groupring._laplace(grp, line) == {(0, 0): 16}


def test_dict_path_determinants_as_before():
    # an ab matrix on 3 strands and a rational one: both stay on dicts, and
    # their determinants are pinned to the values the dict kernel gave
    m = reduced_burau(BraidWord(3, (1, -2, 1, -2)), AbelianImage()).matrix
    E = m - GroupRingMatrix.identity(m.group, 2)
    assert isinstance(_ring_of(E), groupring._DictRing)
    ab = {
        (-1, 0, 0): {-1: 1}, (0, -1, 0): {-1: 1}, (0, 0, 1): {1: 1}, (0, 1, 0): {1: 1},
        (-1, -1, 0): {-2: -1}, (-1, 0, 1): {0: 1}, (0, 1, 1): {2: -1},
    }
    want = GroupRingElement(FreeAbelian(3), {g: TPoly(cs) for g, cs in ab.items()})
    assert E.determinant() == want
    z0, t0 = (Fraction(2), Fraction(-1, 3), Fraction(3, 5)), Fraction(7, 4)
    assert evaluate(want, z0, t0) == det_at(E, z0, t0)

    Z = Integers()

    def e(d):
        return GroupRingElement(Z, {g: TPoly(cs) for g, cs in d.items()})

    R = GroupRingMatrix(Z, [
        [e({1: {1: Fraction(1, 2)}}), e({0: {0: 1}}), e({-1: {2: Fraction(-2, 3)}})],
        [e({0: {0: 3}}), e({2: {-1: Fraction(1, 5)}}), e({})],
        [e({0: {0: -1}}), e({1: {0: 2}}), e({0: {1: 1}, 1: {1: Fraction(3, 7)}})],
    ])
    assert isinstance(_ring_of(R), groupring._DictRing)
    want = e({0: {1: -3, 2: -4}, 1: {1: Fraction(-149, 105)}, 3: {1: Fraction(1, 10)},
              4: {1: Fraction(3, 70)}})
    assert R.determinant() == want
    for z0, t0 in POINTS:
        assert evaluate(want, (z0,), t0) == det_at(R, (z0,), t0)
