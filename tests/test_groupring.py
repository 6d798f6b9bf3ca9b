import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from l2burau.braid import braid_word
from l2burau.epifamilies import Identity, TotalWinding, twist
from l2burau.freegroup import Basis, FreeWord, parse_word, random_word
from l2burau.groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
    is_commutative,
    kappa,
    kappa_of_terms,
    vn_trace,
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
    a = TPoly({1: 2, 0: 1})
    b = TPoly({-1: Fraction(1, 2)})
    assert (a * b).coeffs == {0: Fraction(1), -1: Fraction(1, 2)}
    assert (a + (-a)).is_zero()
    assert a.evaluate(Fraction(1, 2)) == Fraction(2)
    with pytest.raises(ValueError):
        a.evaluate(0)


def test_vn_trace_examples():
    grp = Free(1)
    x = FreeWord.gen(1, 1)
    e = GroupRingElement(
        grp, {FreeWord.identity(1): TPoly.const(3), x: TPoly.const(2)}
    )
    assert vn_trace(e) == TPoly.const(3)
    assert vn_trace(GroupRingElement(grp, {x: TPoly.const(1)})) == TPoly.zero()


def test_vn_trace_commutes(rng):
    grp = Free(2)
    for _ in range(30):
        e = rand_element(rng, grp)
        f = rand_element(rng, grp)
        assert vn_trace(e * f) == vn_trace(f * e)


def test_trace_of_matrix_sums_diagonal():
    grp = Integers()
    m = GroupRingMatrix.identity(grp, 3)
    assert vn_trace(m) == TPoly.const(3)
    with pytest.raises(ValueError):
        vn_trace(GroupRingMatrix.zeros(grp, 2, 3))


def test_kappa_total_winding():
    e = kappa(parse_word("g2 g1^-1", 2), TotalWinding(), 2, Basis.G)
    assert e == GroupRingElement(Integers(), {1: TPoly.t_power(1)})


def test_kappa_identity_family():
    e = kappa(parse_word("g1^-1", 3), Identity(), 3, Basis.G)
    assert e == GroupRingElement(Free(3), {parse_word("g1^-1", 3): TPoly.t_power(-1)})


def test_kappa_linear_extension():
    # the twisting map applied to a Fox-derivative style sum of words
    terms = {
        parse_word("g2 g1^-1", 2): Fraction(-1),
        FreeWord.identity(2): Fraction(2),
    }
    e = kappa_of_terms(terms, TotalWinding(), 2, Basis.G)
    assert e == GroupRingElement(
        Integers(), {1: TPoly.t_power(1, -1), 0: TPoly.const(2)}
    )


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
        assert a.adjoint().adjoint() == a
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) * c == a * c - b * c


@pytest.mark.parametrize("name", sorted(RING_GROUPS))
def test_matrix_adjoint_law(rng, name):
    grp, draw = RING_GROUPS[name]

    def rand_matrix(rows, cols):
        return GroupRingMatrix(
            grp, [[rand_element(rng, grp, draw=draw) for _ in range(cols)] for _ in range(rows)]
        )

    for _ in range(10):
        A, A2 = rand_matrix(2, 3), rand_matrix(2, 3)
        B, B2 = rand_matrix(3, 2), rand_matrix(3, 2)
        C = rand_matrix(2, 2)
        assert (A * B).adjoint() == B.adjoint() * A.adjoint()
        assert A.opposite_mul(B).adjoint() == B.adjoint().opposite_mul(A.adjoint())
        assert (A * B) * C == A * (B * C)
        assert A.opposite_mul(B).opposite_mul(C) == A.opposite_mul(B.opposite_mul(C))
        assert A * (B + B2) == A * B + A * B2
        assert (A - A2).opposite_mul(B) == A.opposite_mul(B) - A2.opposite_mul(B)
        if is_commutative(grp):
            assert A.opposite_mul(B) == A * B


def test_generator_inverse_pair_is_identity():
    # the positive table matrix against the twisted negative one
    from l2burau.torsion import generator_matrix

    m_pos = generator_matrix(2, 1, 1, Identity()).matrix
    m_neg = generator_matrix(2, 1, -1, twist(Identity(), braid_word([1], 2))).matrix
    assert m_pos.opposite_mul(m_neg) == GroupRingMatrix.identity(Free(2), 1)


def test_ball_support_bound(rng):
    grp = Free(2)
    for _ in range(20):
        a = rand_element(rng, grp, n_terms=3)
        b = rand_element(rng, grp, n_terms=3)
        ra = max((w.length() for w in a.terms), default=0)
        rb = max((w.length() for w in b.terms), default=0)
        prod = a * b
        assert all(w.length() <= ra + rb for w in prod.terms)


def test_positive_trace_identity(rng):
    grp = Free(2)
    t0 = Fraction(3, 2)
    for _ in range(20):
        a = rand_element(rng, grp)
        tr = vn_trace(a.adjoint() * a).evaluate(t0)
        expected = sum(c**2 for c in a.coefficients_at(t0).values())
        assert tr == expected
        assert tr >= 0
        if tr == 0:
            assert a.coefficients_at(t0) == {}


def test_block_assemble():
    grp = Integers()
    A = GroupRingMatrix.identity(grp, 2)
    B = GroupRingMatrix.identity(grp, 1)
    C = GroupRingMatrix.zeros(grp, 2, 1)
    D = GroupRingMatrix.zeros(grp, 1, 2)
    m = GroupRingMatrix.block_assemble([[A, C], [D, B]])
    assert m == GroupRingMatrix.identity(grp, 3)
    with pytest.raises(ValueError):
        GroupRingMatrix.block_assemble([[A, B]])


def test_matrix_dimension_errors():
    grp = Integers()
    A = GroupRingMatrix.identity(grp, 2)
    B = GroupRingMatrix.identity(grp, 3)
    with pytest.raises(ValueError):
        A * B
    with pytest.raises(ValueError):
        A + B


def test_determinant_commutative_only():
    A = GroupRingMatrix.identity(Free(2), 2)
    with pytest.raises(ValueError):
        A.determinant()


def test_determinant_small():
    grp = Integers()
    z = GroupRingElement(grp, {1: TPoly.const(1)})
    one = GroupRingElement.one(grp)
    m = GroupRingMatrix(grp, [[z, one], [one, z]])
    det = m.determinant()
    assert det == GroupRingElement(grp, {2: TPoly.const(1), 0: TPoly.const(-1)})


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
    sing.append([factor * a + b for a, b in zip(sing[0], sing[1])])
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
        term = a * _cofactor_det([row[:j] + row[j + 1 :] for row in entries[1:]], grp)
        out = out + term if j % 2 == 0 else out - term
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


def test_render_formats():
    grp = Free(2)
    e = GroupRingElement(
        grp,
        {
            FreeWord.identity(2): TPoly.const(1),
            parse_word("g2 g1^-1", 2): TPoly.t_power(1, -1),
        },
    )
    assert e.render("g") == "1 [e] + (-1)t^1 [g2 g1^-1]"
    obj = e.to_json_obj("g")
    assert {"elem": "e", "coeffs": {"0": "1"}} in obj


def test_json_matrix_round_trip():
    import json

    grp = FreeAbelian(2)
    e = GroupRingElement(grp, {(1, 0): TPoly.t_power(2, Fraction(1, 3))})
    m = GroupRingMatrix(grp, [[e]])
    text = json.dumps(m.to_json_obj())
    back = json.loads(text)
    assert back["entries"][0][0][0] == {"elem": "z1", "coeffs": {"2": "1/3"}}
