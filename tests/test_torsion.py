"""Burau matrices, the candidate Markov function, and the move experiments."""

import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from conftest import clear_t_free_caches, random_braid, random_knot_braid
from oracles import (
    conjugation_identity_check,
    det_at,
    evaluate,
    generator_matrix,
    jacobian_matrix,
    kappa,
    matmul,
    minus_identity_matrix,
    phi_burau_at,
    scale,
    unreduced_burau,
    verify_block_triangularization,
)
from l2burau import fkdet, groupring, torsion
from l2burau.braid import (
    BraidWord,
    compose,
    conjugate,
    invert,
    stabilize,
)
from l2burau.epifamilies import (
    AbelianImage,
    Identity,
    TotalWinding,
    twist,
)
from l2burau.fkdet import det_integers, mahler_univariate
from l2burau.freegroup import Basis, FreeWord, artin_act, parse_word, word
from l2burau.groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
    _unflat,
)
from l2burau.torsion import (
    Conjugate,
    Stabilize,
    alexander_polynomial,
    fq_value,
    markov_report,
    markov_reports,
    reduced_burau,
    render_poly,
)


BOYD = 1.3813564445184977  # m(1 + x + y) in closed form (Smyth 1981)


def custom_family(n):
    """Rank-n 2-column images: a custom family is defined at one rank only."""
    return AbelianImage(((1, 0), (0, 1), (1, 1), (2, -1), (-1, 3))[:n])


def zel(terms):
    return GroupRingElement(Integers(), {k: TPoly(v) for k, v in terms.items()})


# --- generator matrices -------------------------------------------------------


def test_generator_matrix_b2_positive_phi():
    gm = generator_matrix(2, 1, 1, TotalWinding())
    assert gm.entries[0][0] == zel({1: {1: -1}})  # -t z


def test_generator_matrix_b2_negative_identity():
    gm = generator_matrix(2, 1, -1, Identity())
    expected = GroupRingElement(Free(2), {parse_word("g1^-1", 2): TPoly({-1: -1})})
    assert gm.entries[0][0] == expected


def test_generator_matrix_middle_case_shape():
    gm = generator_matrix(4, 2, 1, TotalWinding())
    # column 2 carries (t z, -t z, 1) at rows 1..3; the rest is identity
    assert gm.entries[0][1] == zel({1: {1: 1}})
    assert gm.entries[1][1] == zel({1: {1: -1}})
    assert gm.entries[2][1] == zel({0: {0: 1}})
    assert gm.entries[0][0] == zel({0: {0: 1}})
    assert gm.entries[2][2] == zel({0: {0: 1}})


def test_generator_matrix_determinant_is_t(rng):
    # every generator matrix has determinant t^{+-1}
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            for sign in (1, -1):
                E = generator_matrix(n, i, sign, TotalWinding())
                for t0 in (Fraction(1, 2), 1, 2):
                    est = det_integers(E, t0)
                    assert est.value == pytest.approx(
                        float(Fraction(t0) ** sign), abs=1e-9
                    )


def hand_column(n, i, sign, fam):
    """Independent oracle: column i of the generator matrix of sigma_i^sign,
    written out by hand.  It reads (kappa u, -kappa u, 1) at rows
    (i-1, i, i+1) for sigma_i, u = g_{i+1} g_i^-1, and (1, -kappa u,
    kappa u) for sigma_i^-1, u = g_{i-1} g_i^-1 with g_0 = 1; rows outside
    1..n-1 are dropped."""
    near = i + 1 if sign > 0 else i - 1
    u = word(n, [(near, 1), (i, -1)] if near else [(i, -1)])
    ku = kappa(u, fam, n, Basis.G)
    one = GroupRingElement.one(fam.target(n))
    minus = scale(ku, -1)
    col = {i - 1: ku, i: minus, i + 1: one} if sign > 0 else {i - 1: one, i: minus, i + 1: ku}
    return {r: e for r, e in col.items() if 1 <= r <= n - 1}


def test_generator_matrix_matches_hand_column():
    rng = random.Random("hand-column")
    for n in (2, 3, 4, 6, 7):
        fams = (TotalWinding(), twist(Identity(), random_braid(rng, n, 5)))
        for i in sorted({1, (n + 1) // 2, n - 1}):
            for sign in (1, -1):
                for fam in fams:
                    grp = fam.target(n)
                    col = hand_column(n, i, sign, fam)
                    want = GroupRingMatrix(grp, [
                        [col.get(r, GroupRingElement.zero(grp)) if c == i
                         else GroupRingElement.one(grp) if r == c
                         else GroupRingElement.zero(grp) for c in range(1, n)]
                        for r in range(1, n)])
                    assert generator_matrix(n, i, sign, fam) == want, (n, i, sign, fam)


def test_generator_matrix_agrees_with_fox_route():
    # the fold's one-column update against the full Fox jacobian, all cases
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            for sign in (1, -1):
                for fam in (TotalWinding(), AbelianImage(), Identity()):
                    table = generator_matrix(n, i, sign, fam)
                    fox = jacobian_matrix(BraidWord(n, (sign * i,)), fam, Basis.G, n - 1)
                    assert table == fox, (n, i, sign, fam)


def test_generator_matrix_validation():
    with pytest.raises(ValueError):
        generator_matrix(3, 3, 1, TotalWinding())
    with pytest.raises(ValueError):
        generator_matrix(3, 1, 0, TotalWinding())


# --- reduced Burau matrices ------------------------------------------------------


def test_reduced_burau_counterexample_matrix():
    bm = reduced_burau(BraidWord(3, (-1, 2)), Identity())
    F3 = Free(3)
    g1inv = parse_word("g1^-1", 3)
    assert bm.matrix.entries[0][0] == GroupRingElement(
        F3, {g1inv: TPoly({-1: -1})}
    )
    assert bm.matrix.entries[1][0] == GroupRingElement(
        F3, {g1inv: TPoly({-1: 1})}
    )
    assert bm.matrix.entries[0][1] == GroupRingElement(
        F3, {parse_word("g3 g2^-1 g1^-1", 3): TPoly({0: -1})}
    )
    assert bm.matrix.entries[1][1] == GroupRingElement(
        F3,
        {
            parse_word("g3 g2^-1", 3): TPoly({1: -1}),
            parse_word("g3 g2^-1 g1^-1", 3): TPoly({0: 1}),
        },
    )


def test_reduced_burau_empty_is_identity():
    bm = reduced_burau(BraidWord(4, ()), TotalWinding())
    assert bm.matrix == GroupRingMatrix.identity(Integers(), 3)


def test_reduced_burau_cube():
    bm = reduced_burau(BraidWord(2, (1, 1, 1)), TotalWinding())
    assert bm.matrix.entries[0][0] == zel({3: {3: -1}})  # -(t z)^3


def letterwise_burau(beta, family):
    """B(l_1 ... l_k) = B(l_1) . B_{f o h_(l_1)}(l_2) . ...: one-letter
    matrices over the family twisted by the letters before each, composed
    by the kernel-free opposite product of the oracles."""
    n = beta.strands
    out = GroupRingMatrix.identity(family.target(n), n - 1)
    for k, letter in enumerate(beta.letters):
        fam = twist(family, BraidWord(n, beta.letters[:k])) if k else family
        one = generator_matrix(n, abs(letter), 1 if letter > 0 else -1, fam)
        out = matmul(out, one, opposite=True)
    return out


def test_routes_agree(rng):
    # the fold against the Fox jacobian and against the letter-by-letter
    # oracle product: fifty braids per rank, spread over the three
    # families, then custom (d = 2)
    for family in (Identity(), TotalWinding(), AbelianImage(), custom_family):
        for n in (2, 3, 4):
            fam = custom_family(n) if family is custom_family else family
            for _ in range(17):
                b = random_braid(rng, n, 6)
                fold = reduced_burau(b, fam).matrix
                assert fold == jacobian_matrix(b, fam, Basis.G, n - 1), (fam, b)
                assert fold == letterwise_burau(b, fam), (fam, b)


@pytest.mark.parametrize(
    "letters, backend",
    [((-1, 2), fkdet.det_epsilon_reg), ((1, -2, 1, -2), fkdet.det_free_group)],
)
def test_walk_figures_depend_on_the_matrix_not_its_term_order(letters, backend):
    # the fold and the Fox jacobian list the terms of equal entries in
    # different orders; the walk must not see the difference, not even in
    # the last bit
    beta = BraidWord(3, letters)
    fold = reduced_burau(beta, Identity()).matrix
    fox = jacobian_matrix(beta, Identity(), Basis.G, 2)
    assert fold == fox
    eye = GroupRingMatrix.identity(fold.group, 2)
    a, b = backend(fold - eye, 1), backend(fox - eye, 1)
    assert (a.value, a.error_bound, a.diagnostics) == (b.value, b.error_bound, b.diagnostics)


def test_compose_route_twists_one_letter_at_a_time(rng, monkeypatch):
    # each letter's family comes from the previous one, so an assembly
    # builds about one one-letter BraidWord per letter, not every prefix
    braids = [random_braid(rng, 5, length) for length in (12, 40)]
    built = []
    validate = BraidWord.__post_init__

    def counting(self):
        built.append(len(self.letters))
        validate(self)

    monkeypatch.setattr(BraidWord, "__post_init__", counting)
    for fam in (TotalWinding(), AbelianImage(), custom_family(5), Identity()):
        for b in braids:
            built.clear()
            reduced_burau(b, fam)
            assert len(built) <= len(b) + 1
            assert sum(built) <= len(b) + 1


def test_custom_takes_the_compose_route():
    # identity images are the abelianization, so both assemble the same matrix
    beta = BraidWord(4, (1, -2, 3) * 8)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    bm = reduced_burau(beta, AbelianImage(eye))
    assert bm.matrix == reduced_burau(beta, AbelianImage()).matrix


def test_anti_multiplicativity_symbolic(rng):
    for n in (2, 3, 4):
        for _ in range(10):
            a = random_braid(rng, n, 5)
            b = random_braid(rng, n, 5)
            lhs = jacobian_matrix(compose(a, b), Identity(), Basis.G, n - 1)
            rhs = matmul(
                reduced_burau(a, Identity()).matrix,
                reduced_burau(b, twist(Identity(), a)).matrix,
                opposite=True,
            )
            assert lhs == rhs


def test_unreduced_burau_classical_shape():
    bm = unreduced_burau(BraidWord(2, (1,)), TotalWinding())
    # classical unreduced Burau of sigma_1 at s = t z: [[1-s, 1], [s, 0]]
    assert bm.matrix.entries[0][0] == zel({0: {0: 1}, 1: {1: -1}})
    assert bm.matrix.entries[0][1] == zel({0: {0: 1}})
    assert bm.matrix.entries[1][0] == zel({1: {1: 1}})
    assert bm.matrix.entries[1][1].is_zero()


# --- the candidate Markov function ------------------------------------------------


def test_fq_base_abelian_exact():
    v = fq_value(BraidWord(2, (-1,)), AbelianImage(), 1)
    assert v.value == pytest.approx(1.0, abs=1e-12)
    assert v.estimate.method == "roots"  # univariate reduction


def test_fq_stabilized_abelian_boyd():
    v = fq_value(BraidWord(3, (-1, 2)), AbelianImage(), 1)
    assert abs(v.value - BOYD) <= v.error_bound


@pytest.mark.parametrize("letters", [
    (1, 2, 1, 2),
    (2, -1, -2, 1, 1),
    (1, -2, 1, 1, -1, 2, -1, -2, 1),
    (1, -2, 1, -1, -2, -1, -2, -2, -2),
])
def test_fq_three_axis_abelian_boyd(letters):
    # over ab these determinants use all three axes, so the budget coarsens
    # the grid, and one coordinate has span 1: Jensen's formula integrates
    # it exactly; the 3-axis midpoint rule read the last three as
    # 1.38147037 +- 2.5e-5, a bound that excludes Boyd's value
    v = fq_value(BraidWord(3, letters), AbelianImage(), 1)
    assert "jensen_axis" in v.estimate.diagnostics
    assert abs(v.value - BOYD) <= v.error_bound <= 2e-5


def test_fq_identity_family_free_value():
    v = fq_value(BraidWord(3, (-1, 2)), Identity(), 1)
    assert abs(v.value - 2 / math.sqrt(3)) < 2e-2


@pytest.mark.parametrize("letters", [(-1,), (1,), (1, 1, 1)])
def test_fq_rank_one_support_is_exact(letters):
    # the support lies in one cyclic subgroup: a Mahler measure by roots
    v = fq_value(BraidWord(2, letters), Identity(), 1)
    assert v.estimate.method == "roots"
    assert v.estimate.diagnostics == {
        "subgroup_rank": 1, "reduced_to_univariate": True, "root_bits": 53
    }
    assert abs(v.value - 1.0) <= v.error_bound < 1e-9


@pytest.mark.parametrize("t0", [Fraction(1, 2), 1, 2])
def test_fq_repeated_roots_hold_their_bound(t0):
    # Delta_{3_1}(z) (1 + ... + z^5) has the double factor 1 - z + z^2;
    # all roots lie on the unit circle, so F = max(1, t)
    v = fq_value(BraidWord(6, (1, 1, 1, 2, 3, 4, 5)), TotalWinding(), t0)
    assert v.estimate.method == "roots"
    expected = float(max(1, t0))
    assert abs(v.value - expected) <= min(v.error_bound, 1e-12 * expected)


FOUR_TREFOILS = BraidWord(5, (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4))


def test_fq_four_trefoils_is_exact():
    # the connected sum of four trefoils: Delta = (1 - s + s^2)^4, every
    # root a fourfold one on the unit circle, so F = 1 at t = 1 and an
    # integer power of t elsewhere
    v = fq_value(FOUR_TREFOILS, TotalWinding(), 1)
    assert abs(v.value - 1.0) <= v.error_bound < 1e-9
    assert v.estimate.diagnostics == {
        "degree_span": [0, 12],
        "cyclotomic_factor": 5,
        "multiplicities": [4],
        "root_bits": 53,
    }
    for t0 in (Fraction(1, 2), Fraction(2)):
        v = fq_value(FOUR_TREFOILS, TotalWinding(), t0)
        k = round(math.log(v.value) / math.log(t0))
        assert abs(v.value - float(t0) ** k) <= v.error_bound


def test_fq_square_free_delta_records_no_split():
    v = fq_value(BraidWord(3, (1, -2, 1, -2)), TotalWinding(), 1)  # figure eight
    assert v.estimate.diagnostics == {
        "degree_span": [-2, 2], "cyclotomic_factor": 3, "root_bits": 53
    }
    assert abs(v.value - (3 + math.sqrt(5)) / 2) <= v.error_bound


SYMBOLIC_BRAIDS = [(1, -2, 1, -2, 1), (1, -2, 1, -2), (1, 1, 1)]


def _assert_same_estimate_as_fq_value(family, method, wrapper, letters):
    # a det_* wrapper on the decoded E = Burau - Id meets the same flat
    # input as fq_value, so value, bound and diagnostics agree
    beta = BraidWord(3, letters)
    E = minus_identity_matrix(beta, family)
    for t0 in (Fraction(1, 2), Fraction(1), Fraction(2)):
        got = wrapper(E, t0)
        want = fq_value(beta, family, t0, method=method).estimate
        assert (got.value, got.error_bound, got.diagnostics) == (
            want.value,
            want.error_bound,
            want.diagnostics,
        )


@pytest.mark.parametrize("letters", SYMBOLIC_BRAIDS)
def test_det_integers_reads_the_same_solve_as_fq_value(letters):
    # det_integers on E = Burau - Id meets the same determinant and the same
    # exact division as fq_value
    _assert_same_estimate_as_fq_value(TotalWinding(), "roots", fkdet.det_integers, letters)


@pytest.mark.parametrize(
    "family, method, wrapper, letters",
    [
        pytest.param(family, method, wrapper, letters, id=f"{family.name}-{method}-{letters}")
        for family, method, wrapper, braids in (
            (AbelianImage(), "quad", fkdet.det_free_abelian, SYMBOLIC_BRAIDS),
            # each free-group walk takes a good part of a second: one braid
            (Identity(), "series", fkdet.det_free_group, [(1, -2, 1, -2)]),
            (Identity(), "eps", fkdet.det_epsilon_reg, [(1, -2, 1, -2)]),
        )
        for letters in braids
    ],
)
def test_det_wrapper_reads_the_same_estimate_as_fq_value(family, method, wrapper, letters):
    _assert_same_estimate_as_fq_value(family, method, wrapper, letters)


def test_burau_alexander_division_is_checked(monkeypatch):
    # 1 + 2s is not a multiple of 1 + s: the exact division refuses it
    det = {(0, 0): 1, (1, 1): 2}
    monkeypatch.setattr(torsion, "_symbolic_det", lambda beta, family: det)
    with pytest.raises(AssertionError, match="not divisible"):
        alexander_polynomial(BraidWord(2, (1,)))


@pytest.mark.parametrize(
    "letters, value, bound",
    [
        ((-1,), 0.9997862673460619, 0.028820535182988678),
        ((-1, 2), 1.1778699080883486, 0.13406371675100415),
    ],
)
def test_fq_identity_family_eps_pinned(letters, value, bound):
    # pinned to separate walks per eps, which rescaled moments must reproduce
    v = fq_value(BraidWord(max(map(abs, letters)) + 1, letters), Identity(), 1, method="eps")
    assert v.value == pytest.approx(value, rel=1e-9)
    assert v.error_bound == pytest.approx(bound, rel=1e-9)


def test_fq_single_strand():
    # empty braid on one strand: det of the empty matrix is 1
    v = fq_value(BraidWord(1, ()), TotalWinding(), 2)
    assert v.value == pytest.approx(0.5)  # 1 / max(1, t)^1


def test_fq_rejects_bad_t():
    with pytest.raises(ValueError):
        fq_value(BraidWord(2, (1,)), TotalWinding(), 0)


def test_fq_json_payload():
    import json

    v = fq_value(BraidWord(2, (1, 1, 1)), TotalWinding(), Fraction(1, 2))
    obj = json.loads(json.dumps(v.to_json_obj()))
    assert obj["family"] == "phi" and obj["t"] == "1/2"


# --- Alexander polynomials ----------------------------------------------------------


def classical_burau_oracle(letters, n):
    """Independent symbolic oracle: multiply textbook reduced Burau matrices
    in the one-variable specialization and divide out 1 + s + ... + s^(n-1).

    Implemented with bare {exponent: Fraction} dictionaries so it shares no
    code with the library path.
    """

    def pmul(p, q):
        out = {}
        for a, ca in p.items():
            for b, cb in q.items():
                k = a + b
                out[k] = out.get(k, Fraction(0)) + ca * cb
        return {k: c for k, c in out.items() if c}

    def padd(p, q):
        out = dict(p)
        for k, c in q.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    one = {0: Fraction(1)}

    def gen_matrix(i, sign):
        m = [[one if r == c else {} for c in range(n - 1)] for r in range(n - 1)]
        if sign > 0:
            u = {1: Fraction(1)}  # s
            col = {i - 1: u, i: {1: Fraction(-1)}, i + 1: one}
        else:
            u = {-1: Fraction(1)}  # 1/s
            col = {i - 1: one, i: {-1: Fraction(-1)}, i + 1: u}
        for r, val in col.items():
            if 1 <= r <= n - 1:
                m[r - 1][i - 1] = val
        return m

    def mmul(A, B):
        size = len(A)
        return [
            [
                # entry order is irrelevant here: everything commutes
                sum_poly([pmul(A[r][k], B[k][c]) for k in range(size)])
                for c in range(size)
            ]
            for r in range(size)
        ]

    def sum_poly(ps):
        out = {}
        for p in ps:
            out = padd(out, p)
        return out

    M = [[one if r == c else {} for c in range(n - 1)] for r in range(n - 1)]
    for letter in letters:
        M = mmul(M, gen_matrix(abs(letter), 1 if letter > 0 else -1))

    for r in range(n - 1):
        M[r][r] = padd(M[r][r], {0: Fraction(-1)})

    def det(mat):
        size = len(mat)
        if size == 0:
            return one
        if size == 1:
            return mat[0][0]
        out = {}
        for c in range(size):
            minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
            term = pmul(mat[0][c], det(minor))
            if c % 2:
                term = {k: -v for k, v in term.items()}
            out = padd(out, term)
        return out

    D = det(M)
    cyclo = {k: Fraction(1) for k in range(n)}
    # long division after clearing the Laurent shift
    lo = min(D)
    Dp = {k - lo: c for k, c in D.items()}
    q = {}
    while Dp:
        k = max(Dp)
        if k < n - 1:
            raise AssertionError("inexact division in oracle")
        lead = Dp[k]
        q[k - (n - 1)] = lead
        for j, c in cyclo.items():
            kk = k - (n - 1) + j
            s = Dp.get(kk, Fraction(0)) - lead * c
            if s:
                Dp[kk] = s
            else:
                Dp.pop(kk, None)
    qlo = min(q)
    q = {k - qlo: c for k, c in q.items()}
    if q[max(q)] < 0:
        q = {k: -c for k, c in q.items()}
    return q


def test_alexander_trefoil():
    poly = alexander_polynomial(BraidWord(2, (1, 1, 1)))
    assert poly == {2: Fraction(1), 1: Fraction(-1), 0: Fraction(1)}
    assert render_poly(poly) == "s^2 - s + 1"
    assert poly == classical_burau_oracle((1, 1, 1), 2)


def test_alexander_unknot():
    assert alexander_polynomial(BraidWord(2, (1,))) == {0: Fraction(1)}


def test_alexander_figure_eight():
    poly = alexander_polynomial(BraidWord(3, (1, -2, 1, -2)))
    assert poly == {2: Fraction(1), 1: Fraction(-3), 0: Fraction(1)}
    assert poly == classical_burau_oracle((1, -2, 1, -2), 3)


def test_alexander_random_against_oracle(rng):
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        b = random_knot_braid(rng, n, 7)
        assert alexander_polynomial(b) == classical_burau_oracle(b.letters, n)


def test_alexander_rejects_links():
    with pytest.raises(ValueError):
        alexander_polynomial(BraidWord(3, (1,)))  # two-component closure


# --- Markov experiments ---------------------------------------------------------------


def test_markov_invariant_stabilization():
    rep = markov_report(BraidWord(2, (1,)), [Stabilize(1)], TotalWinding(), 1)
    assert rep.verdict == "invariant"
    assert [s.fq.value for s in rep.stages] == pytest.approx([1.0, 1.0], abs=1e-6)


def test_markov_violation_abelianization():
    rep = markov_report(
        BraidWord(2, (-1,)), [Stabilize(1, after=True)], AbelianImage(), 1
    )
    assert rep.verdict == "violation"
    assert rep.stages[0].fq.value == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.stages[1].fq.value - BOYD) <= rep.stages[1].fq.error_bound


def test_markov_violation_identity_certified():
    # at the default series length the honest error bounds are too wide to
    # certify the free-group violation; a longer series pins it down
    rep = markov_report(
        BraidWord(2, (-1,)),
        [Stabilize(1, after=True)],
        Identity(),
        1,
        series_len=60,
    )
    assert rep.verdict == "violation"
    assert rep.stages[1].fq.value == pytest.approx(2 / math.sqrt(3), abs=2e-2)


def test_markov_trefoil_chain():
    rep = markov_report(
        BraidWord(2, (1, 1, 1)),
        [Conjugate(BraidWord(2, (1,))), Stabilize(1)],
        TotalWinding(),
        1,
    )
    assert rep.verdict == "invariant" and rep.max_deviation < 1e-6


def test_markov_monomial_fit_away_from_one():
    rep = markov_report(
        BraidWord(2, (1, 1, 1)),
        [Stabilize(-1), Stabilize(1)],
        TotalWinding(),
        2,
    )
    assert rep.verdict == "invariant" and rep.max_deviation < 1e-6


def test_markov_json_schema():
    import json

    rep = markov_report(BraidWord(2, (1,)), [Stabilize(1)], TotalWinding(), 1)
    obj = json.loads(json.dumps(rep.to_json_obj()))
    assert set(obj) == {"braid", "family", "t", "stages", "verdict", "max_deviation"}
    assert set(obj["stages"][0]) == {
        "move", "braid", "value", "error_bound", "method", "diagnostics"
    }


def test_markov_threaded_matches_serial(monkeypatch):
    beta = BraidWord(2, (1, 1, 1))
    moves = [Stabilize(1), Conjugate(BraidWord(3, (2,)))]
    serial = markov_report(beta, moves, TotalWinding(), 1)
    monkeypatch.setenv("L2BURAU_THREADS", "4")
    threads = []
    fq_value = torsion.fq_value

    def recording_fq_value(*args, **kwargs):
        threads.append(threading.get_ident())
        return fq_value(*args, **kwargs)

    monkeypatch.setattr(torsion, "fq_value", recording_fq_value)
    threaded = markov_report(beta, moves, TotalWinding(), 1)
    assert [s.fq.value for s in serial.stages] == [
        s.fq.value for s in threaded.stages
    ]
    # the environment variable is ignored: every stage runs in this thread
    assert threads == [threading.get_ident()] * len(threaded.stages)


def test_markov_reports_are_the_one_t_reports(rng):
    # one stage-major loop over t gives, per t, the report of its own run:
    # seeded chains over phi, ab, a custom family (conjugations only, as
    # its rows fix the strand count) and id (short braids, series backend)
    t_values = (Fraction(1, 2), Fraction(1), Fraction(2))
    cases = [(TotalWinding(), 4, 8, True), (AbelianImage(), 3, 6, True),
             (AbelianImage([[1, 0], [0, 1], [1, 1]]), 3, 6, False), (Identity(), 3, 2, True)]
    for family, n, length, stabilize in cases:
        for _ in range(3):
            beta = random_braid(rng, n, rng.randint(1, length))
            moves, strands = [], n
            for _ in range(rng.randint(1, 3)):
                if stabilize and rng.random() < 0.4:
                    moves.append(Stabilize(rng.choice((1, -1))))
                    strands += 1
                else:
                    moves.append(Conjugate(random_braid(rng, strands, rng.randint(1, 2))))
            got = [r.to_json_obj() for r in markov_reports(beta, moves, family, t_values)]
            clear_t_free_caches()
            want = [markov_report(beta, moves, family, t0).to_json_obj() for t0 in t_values]
            assert got == want, (family.name, beta.render(), moves)


# --- proof-level identities -------------------------------------------------------------


def test_block_triangularization_smallest_cases():
    for letters, sign in (((1,), -1), ((-1,), 1), ((1,), 1), ((-1,), -1)):
        rep = verify_block_triangularization(BraidWord(2, letters), sign)
        assert rep.passed, rep
    # one strand: the reduced matrix is empty and the corner carries it all
    for sign in (1, -1):
        rep = verify_block_triangularization(BraidWord(1, ()), sign)
        assert rep.passed, rep


def test_block_triangularization_random(rng):
    for _ in range(10):
        n = rng.choice((2, 3))
        b = random_braid(rng, n, 6)
        for sign in (1, -1):
            rep = verify_block_triangularization(b, sign)
            assert rep.passed, (b, sign, rep)


def test_conjugation_identity_families(rng):
    base = conjugation_identity_check(
        BraidWord(3, (1,)), BraidWord(3, (2,)), Identity()
    )
    assert base.passed
    for fam in (Identity(), TotalWinding(), AbelianImage()):
        for _ in range(5):
            n = rng.choice((2, 3))
            b = random_braid(rng, n, 4)
            a = random_braid(rng, n, 4)
            rep = conjugation_identity_check(b, a, fam)
            assert rep.passed, (b, a, fam)
            if rep.det_residual is not None:
                assert rep.det_residual < 1e-9


def test_conjugation_identity_trivial_alpha():
    rep = conjugation_identity_check(
        BraidWord(3, (1, -2)), BraidWord(3, ()), TotalWinding()
    )
    assert rep.passed and rep.det_residual < 1e-12


# --- the one-variable torsion consistency -----------------------------------------------


def mahler_of_scaled_alexander(poly, t0: Fraction) -> float:
    """Mahler measure in z of Delta(t0 z), the independent comparison side."""
    scaled = {k: c * t0**k for k, c in poly.items()}
    value, _ = mahler_univariate(scaled)
    return value


def test_torsion_consistency_at_z(rng):
    # the total-winding value equals the Mahler measure of the rescaled
    # Alexander polynomial over max(1, t), up to one monomial in t
    for _ in range(6):
        n = rng.choice((2, 3, 4))
        b = random_knot_braid(rng, n, 7)
        poly = alexander_polynomial(b)
        for t0 in (Fraction(1, 2), Fraction(1), Fraction(2)):
            lhs = fq_value(b, TotalWinding(), t0).value
            rhs = mahler_of_scaled_alexander(poly, t0) / float(max(Fraction(1), t0))
            if t0 == 1:
                assert lhs == pytest.approx(rhs, abs=1e-6)
            else:
                ratio = lhs / rhs
                m = round(math.log(ratio) / math.log(float(t0)))
                assert lhs == pytest.approx(rhs * float(t0) ** m, rel=1e-6)


def test_burau_winding_consistency_guard():
    # construction-time check: t-exponent equals the z-exponent per term
    bm = reduced_burau(BraidWord(3, (1, -2, 1)), TotalWinding())
    for row in bm.matrix.entries:
        for e in row:
            for elem, tp in e.terms.items():
                assert set(tp.coeffs) == {elem}


# --- the compose route at sweep size ------------------------------------------------

SWEEP_KNOTS = {
    # table braid, Alexander polynomial
    "3_1": ((2, (1, 1, 1)), {0: 1, 1: -1, 2: 1}),
    "4_1": ((3, (1, -2, 1, -2)), {0: 1, 1: -3, 2: 1}),
    "6_2": ((3, (1, 1, 1, -2, 1, -2)), {0: 1, 1: -3, 2: 3, 3: -3, 4: 1}),
    "7_1": ((2, (1,) * 7), {k: (-1) ** k for k in range(7)}),
}
SWEEP_CONJUGATOR = BraidWord(7, (
    2, 6, -3, -3, -5, 2, 4, -3, -1, -4, -3, -6, -2, -4, -2,
    4, 1, -4, 2, 2, 5, 2, 1, -5, -2, -5, 6, 4, -1, 5,
))


def mahler_roots_oracle(poly, t: float) -> float:
    """Mahler measure in z of Delta(t z) from numpy roots of Delta:
    |lead| t^deg prod max(1, |root| / t)."""
    deg = max(poly)
    roots = np.roots([float(poly.get(k, 0)) for k in range(deg, -1, -1)])
    return abs(float(poly[deg])) * t**deg * float(np.prod(np.maximum(1.0, np.abs(roots) / t)))


def _sweep_variants(name):
    """The table braid of ``name`` stabilized to 7 strands with +1 and
    conjugated by SWEEP_CONJUGATOR, then three seeded conjugators and
    stabilization signs at each of 7 and 8 strands."""
    (strands, letters), _ = SWEEP_KNOTS[name]
    rng = random.Random(f"sweep-{name}")
    cases = [([1] * 7, SWEEP_CONJUGATOR)]
    for n in (7, 7, 7, 8, 8, 8):
        cases.append(([rng.choice((1, -1)) for _ in range(n)], random_braid(rng, n, 30)))
    for signs, alpha in cases:
        beta = BraidWord(strands, letters)
        for sign in signs[strands:]:
            beta = stabilize(beta, sign)
        yield conjugate(beta, alpha)


@pytest.mark.parametrize("name", sorted(SWEEP_KNOTS))
def test_compose_route_at_sweep_size(name):
    # the table polynomial is a closed form for the whole integer path:
    # fold, E on the ints, the Hadamard-width determinant and the root solve
    table = SWEEP_KNOTS[name][1]
    for beta in _sweep_variants(name):
        n = beta.strands
        assert alexander_polynomial(beta) == {k: Fraction(c) for k, c in table.items()}
        # det(Burau - Id) = +-s^k Delta(s) (1 + s + ... + s^(n-1)) at s = t z,
        # symmetric about half the exponent sum e, which fixes k; the second
        # factor has Mahler measure max(1, t)^(n-1)
        e = sum(1 if x > 0 else -1 for x in beta.letters)
        assert (e - (n - 1) - max(table)) % 2 == 0
        k = (e - (n - 1) - max(table)) // 2
        for t0 in (Fraction(1, 2), Fraction(1), Fraction(2)):
            v = fq_value(beta, TotalWinding(), t0)
            t, top = float(t0), float(max(Fraction(1), t0))
            want = t**k * top ** (n - 1) * mahler_roots_oracle(table, t) / top**n
            assert abs(v.value - want) <= v.error_bound, (name, beta.render(), t0, v.value, want)


# --- the t-free part of fq_value, built once per (braid, family) ----------------


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# --- the fold handed straight to the determinant --------------------------------

HANDOFF_D1 = ((1,), (0,), (2,), (-1,), (3,), (1,))
HANDOFF_D2 = ((1, 0), (0, 1), (1, 1), (2, -1), (-1, 3), (3, 1))


@pytest.mark.parametrize(
    "name, make, max_strands, max_len",
    [
        ("phi", lambda n: TotalWinding(), 7, 40),
        ("ab", lambda n: AbelianImage(), 4, 10),
        ("custom-d1", lambda n: AbelianImage(HANDOFF_D1[:n]), 5, 16),
        ("custom-d2", lambda n: AbelianImage(HANDOFF_D2[:n]), 5, 12),
    ],
)
def test_symbolic_det_of_the_flat_fold_matches_the_matrix_and_the_oracle(
    name, make, max_strands, max_len
):
    # _symbolic_det expands the fold's flat rows without building E; its
    # flat dict, decoded, must give the determinant of the decoded E, and
    # the Fraction Gaussian determinant of the Fox jacobian oracle at
    # rational points.
    # The letter repeated 41 times is one converted column counted 41
    # times in the dict path's key base.
    rng = random.Random(f"handoff-{name}")
    fixed = [
        BraidWord(1, ()),
        BraidWord(2, ()),
        BraidWord(3, ()),
        BraidWord(2, (-1, -1, 1, -1)),
        BraidWord(4, (2,) * 41 + (-3, 1, 2)),
    ]
    seeded = [
        random_braid(rng, rng.randint(2, max_strands), rng.randint(0, max_len))
        for _ in range(24)
    ]
    for beta in fixed + seeded:
        n, fam = beta.strands, make(beta.strands)
        B = reduced_burau(beta, fam).matrix
        eye = GroupRingMatrix.identity(B.group, n - 1)
        D = _unflat(B.group, torsion._symbolic_det(beta, fam))
        assert D == (B - eye).determinant(), beta.render()
        if not beta.letters and n > 1:
            assert D.is_zero()
        fox = jacobian_matrix(beta, fam, Basis.G, n - 1) - eye
        dim = 1 if isinstance(B.group, Integers) else B.group.d
        for sign in (1, -1):
            z0 = [Fraction(sign * (2 + i), 3 + 2 * i) for i in range(dim)]
            t0 = Fraction(5, 3) if sign > 0 else Fraction(2, 7)
            assert evaluate(D, z0, t0) == det_at(fox, z0, t0), beta.render()


def test_fq_t_sweep_builds_matrix_and_determinant_once(monkeypatch):
    # one fold, one expansion and one root solve serve every t; no t
    # substitutes into the determinant or calls the root finder again
    beta = random_braid(random.Random(7), 7, 24)
    ts = (Fraction(1, 2), Fraction(1), Fraction(2))
    folded = _count_calls(monkeypatch, torsion, "_burau_fold")
    expanded = _count_calls(monkeypatch, torsion, "_laplace")
    solved = _count_calls(monkeypatch, fkdet, "UnivariateRoots")
    substituted = _count_calls(monkeypatch, fkdet, "_at")
    found = _count_calls(monkeypatch, np, "roots")
    sweep = [fq_value(beta, TotalWinding(), t) for t in ts]
    assert (len(folded), len(expanded), len(solved)) == (1, 1, 1)
    parts = len(sweep[0].estimate.diagnostics.get("multiplicities", [1]))
    assert not substituted and len(found) == parts
    for t, got in zip(ts, sweep):
        clear_t_free_caches()
        alone = fq_value(beta, TotalWinding(), t)
        assert (got.value, got.error_bound, got.estimate.method, got.estimate.diagnostics) == (
            alone.value,
            alone.error_bound,
            alone.estimate.method,
            alone.estimate.diagnostics,
        )
    assert (len(folded), len(expanded), len(solved)) == (4, 4, 4)


def test_roots_and_quad_paths_build_no_group_ring_element(monkeypatch):
    # from the fold through the determinant to the roots and quadrature
    # backends and the Alexander polynomial, and from the fold to the
    # series and eps backends, every entry stays a flat dict
    built = _count_calls(monkeypatch, GroupRingElement, "__init__")
    beta = BraidWord(4, (1, -2, 3) * 3)
    for t in (Fraction(1, 2), 1, 2):
        fq_value(beta, TotalWinding(), t)
    alexander_polynomial(beta)
    assert not built
    fq_value(BraidWord(3, (1, -2, 1, -2)), AbelianImage(), 1)
    assert not built
    for method in ("series", "eps"):
        fq_value(BraidWord(3, (-1, 2)), Identity(), 1, method=method)
    assert not built


def test_alexander_then_fq_sweep_folds_once(monkeypatch):
    # the Alexander polynomial, a t sweep, the matrix and E of one braid
    # all read one fold and one expansion
    beta = BraidWord(5, (1, -2, 3, -4) * 3)
    folded = _count_calls(monkeypatch, torsion, "_burau_fold")
    expanded = _count_calls(monkeypatch, torsion, "_laplace")
    alexander_polynomial(beta)
    for t in (Fraction(1, 2), 1, 2):
        fq_value(beta, TotalWinding(), t)
    reduced_burau(beta, TotalWinding())
    torsion._minus_identity(beta, TotalWinding())
    assert (len(folded), len(expanded)) == (1, 1)


def test_phi_path_keeps_one_encoding_from_fold_to_root_solve(monkeypatch):
    # under phi the fold's ints reach the expansion as they are: no fold
    # entry is decoded into a flat dict (det(E) is the one int decoded per
    # expansion) and no flat rows are encoded again; one fold and one
    # expansion per braid, as before
    beta, knot = random_braid(random.Random(11), 7, 60), BraidWord(5, (1, -2, 3, -4) * 3)
    folded = _count_calls(monkeypatch, torsion, "_burau_fold")
    expanded = _count_calls(monkeypatch, torsion, "_laplace")
    decoded = _count_calls(monkeypatch, groupring._IntRing, "flat")
    relined = _count_calls(monkeypatch, groupring, "_line_entries")
    for t in (Fraction(1, 2), 1, 2):
        fq_value(beta, TotalWinding(), t)
    alexander_polynomial(knot)
    for t in (Fraction(1, 2), 2):
        fq_value(knot, TotalWinding(), t)
    assert (len(folded), len(expanded), len(decoded)) == (2, 2, 2)
    assert not relined


def test_ab_fold_off_the_line_with_e_on_a_line_expands_on_ints(monkeypatch):
    # over ab the columns of sigma_1 and of its twist lie on two lines, so
    # the fold runs on dicts and never reads a line off flat rows; E = B - Id
    # of sigma_1^2 and sigma_1^3 is a monomial minus 1, on one line, so the
    # expansion reads its flat rows onto the integer path once
    built = []
    encode = groupring._line_entries

    def counted(group, rows):
        built.append(encode(group, rows))
        return built[-1]

    monkeypatch.setattr(groupring, "_line_entries", counted)
    for k in (2, 3):
        beta = BraidWord(2, (1,) * k)
        assert isinstance(torsion._burau_fold(beta, AbelianImage()), list)
        assert not built
        D = _unflat(FreeAbelian(2), torsion._symbolic_det(beta, AbelianImage()))
        assert len(built) == 1 and built.pop() is not None
        B = reduced_burau(beta, AbelianImage()).matrix
        E = B - GroupRingMatrix.identity(B.group, 1)
        for z0, t0 in (((Fraction(2), Fraction(-1, 3)), Fraction(5, 7)),
                       ((Fraction(-3, 2), Fraction(7, 5)), Fraction(2))):
            assert evaluate(D, z0, t0) == det_at(E, z0, t0)


def test_phi_fold_off_the_winding_line_is_refused():
    # under phi every key is (k, k): a family whose z exponents drift from
    # the t exponents folds onto another line, which the cached fold refuses

    class Doubled(TotalWinding):
        __eq__, __hash__ = object.__eq__, object.__hash__  # its own cache entries

        def apply(self, w, n):
            return 2 * super().apply(w, n)

    with pytest.raises(AssertionError, match="twisting inconsistency"):
        torsion._burau_rows(BraidWord(3, (1, -2, 1)), Doubled())
    assert torsion._burau_rows(BraidWord(3, ()), TotalWinding()).ring.u == [0, 0]


class RowImage:
    """An abelian family written against the protocol the pipeline reads,
    and nothing more: x_i to rows[i-1], so g_j = x_1..x_j to the sum of
    the first j rows, and the twist by a prefix takes each row to the image
    of h_prefix(x_i), read off the Artin action rather than a permutation."""

    name = "custom"

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)

    def target(self, n):
        return FreeAbelian(len(self.rows[0]))

    def apply(self, w, n):
        assert w.rank == n == len(self.rows)
        out = [0] * len(self.rows[0])
        for g, e in w.syllables:
            for row in self.rows[:g]:
                out = [a + e * b for a, b in zip(out, row)]
        return tuple(out)

    def twist(self, prefix):
        n = prefix.strands
        rows = []
        for i in range(1, n + 1):
            x = [0] * n
            for g, e in artin_act(prefix, FreeWord.gen(n, i), Basis.X).syllables:
                x[g - 1] += e
            rows.append([sum(c * row[a] for c, row in zip(x, self.rows))
                         for a in range(len(self.rows[0]))])
        return RowImage(rows)

    def __eq__(self, other):
        return isinstance(other, RowImage) and self.rows == other.rows

    def __hash__(self):
        return hash((RowImage, self.rows))


def test_a_family_of_target_apply_and_twist_runs_the_whole_pipeline():
    # a family that answers only name, target, apply on g-basis words,
    # twist, == and hash gives the Burau matrix, F and the Markov report
    # of AbelianImage with the same rows, at d = 1 and d = 2, through the
    # torus quadrature and its roots solve of rank-1 supports
    rng = random.Random("row-image")
    for rows in ([[1], [2], [-1]], [[1], [1], [1], [1]], [[1, 0], [0, 1], [1, 1]]):
        n = len(rows)
        for _ in range(6):
            beta = random_braid(rng, n, rng.randint(1, 8))
            alpha = random_braid(rng, n, 3)
            ours, lib = RowImage(rows), AbelianImage(rows)
            assert reduced_burau(beta, ours).matrix == reduced_burau(beta, lib).matrix
            for t0 in (Fraction(1, 2), 1):
                a, b = fq_value(beta, ours, t0), fq_value(beta, lib, t0)
                assert a.to_json_obj() == b.to_json_obj(), (rows, beta.render(), t0)
            moves = [Conjugate(alpha)]
            a = markov_report(beta, moves, ours, 2).to_json_obj()
            assert a == markov_report(beta, moves, lib, 2).to_json_obj()


def test_symbolic_det_on_the_integer_path_matches_the_flat_route_and_the_oracles():
    # phi braids of 4-8 strands and 40-80 letters: det(E) from the fold's
    # ints equals the expansion of E's flat rows, term for term and in
    # order, and the Gaussian determinant of E at rational points; the
    # fold itself matches the classical generator matrices multiplied out
    rng = random.Random("line-det")
    for case in range(20):
        beta = random_braid(rng, 4 + case % 5, rng.randint(40, 80))
        fam = TotalWinding()
        D = torsion._symbolic_det(beta, fam)
        flat = groupring._laplace(Integers(), torsion._minus_identity(beta, fam))
        assert list(D.items()) == list(flat.items()), beta.render()
        B = reduced_burau(beta, fam).matrix
        E = B - GroupRingMatrix.identity(B.group, beta.strands - 1)
        for z0, t0 in ((Fraction(2), Fraction(1, 3)), (Fraction(-3, 2), Fraction(5, 7))):
            assert [[evaluate(e, (z0,), t0) for e in row] for row in B.entries] == phi_burau_at(
                beta, z0 * t0
            )
            assert evaluate(_unflat(B.group, D), (z0,), t0) == det_at(E, (z0,), t0)


def test_fq_value_reuses_no_backend_result(monkeypatch):
    radii = []

    class CountingBall(fkdet.FreeBall):
        def __init__(self, rank, radius):
            radii.append(radius)
            super().__init__(rank, radius)

    monkeypatch.setattr(fkdet, "FreeBall", CountingBall)
    beta = BraidWord(3, (-1, 2))
    first = fq_value(beta, Identity(), 1, series_len=10)
    walked = len(radii)
    second = fq_value(beta, Identity(), 1, series_len=10)
    assert walked >= 1 and len(radii) == 2 * walked
    assert second.estimate is not first.estimate
    assert (second.value, second.error_bound) == (first.value, first.error_bound)
