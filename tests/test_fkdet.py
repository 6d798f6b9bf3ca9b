"""Determinant backends against closed forms and each other.

The root method over Z is exact up to root finding and serves as the
oracle for the quadrature, series, and epsilon backends wherever their
domains overlap.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_word
from l2burau import fkdet
from l2burau.braid import BraidWord
from l2burau.epifamilies import AbelianImage, Identity, TotalWinding
from l2burau.fkdet import (
    _series_from_moments,
    _trace_moments,
    det_epsilon_reg,
    det_free_abelian,
    det_free_group,
    det_integers,
    fold_subgroup_basis,
    mahler_univariate,
)
from l2burau.freegroup import FreeWord, parse_word, word
from l2burau.groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
    _at,
)
from l2burau.torsion import _minus_identity, fq_value, reduced_burau
from oracles import (
    adjoint,
    block_assemble,
    coefficients_at,
    fraction_squarefree_parts,
    matmul,
    mul,
    rescan_fold_subgroup_basis,
    scale,
    zeros,
)

BOYD = 1.3813564445184977  # Mahler measure of 1 + X + Y
TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)


def zelt(terms):
    return GroupRingElement(Integers(), {k: TPoly(v) for k, v in terms.items()})


def z2elt(terms):
    return GroupRingElement(FreeAbelian(2), {k: TPoly(v) for k, v in terms.items()})


def felt(rank, terms):
    return GroupRingElement(
        Free(rank), {parse_word(w, rank): TPoly(c) for w, c in terms.items()}
    )


def one_by_one(e):
    return GroupRingMatrix(e.group, [[e]])


# --- det_integers -------------------------------------------------------------


def test_roots_simple_case():
    m = one_by_one(zelt({0: {0: 1}, 1: {1: -1}}))  # Id - t R_z
    assert det_integers(m, Fraction(1, 2)).value == pytest.approx(1.0, abs=1e-12)
    assert det_integers(m, 2).value == pytest.approx(2.0, abs=1e-12)


def test_roots_unit_circle():
    m = one_by_one(zelt({1: {0: -1}, 0: {0: -1}}))  # -R_z - Id
    assert det_integers(m, 1).value == pytest.approx(1.0, abs=1e-12)


def test_roots_dilation():
    m = one_by_one(zelt({0: {0: -3}}))
    assert det_integers(m, 1).value == pytest.approx(3.0, abs=1e-14)


def test_roots_reads_an_integral_fraction_determinant_as_one_polynomial():
    # det [[s/2, 0], [0, 2s]] = s^2, s = z t, is expanded in Fractions, so
    # its one coefficient is Fraction(1); it still takes the one-variable
    # solve that divides out the cyclotomic factor
    m = GroupRingMatrix(
        Integers(), [[zelt({1: {1: Fraction(1, 2)}}), zelt({})], [zelt({}), zelt({1: {1: 2}})]]
    )
    est = det_integers(m, 2)
    assert est.diagnostics["cyclotomic_factor"] == 1
    assert est.value == pytest.approx(4.0, rel=1e-14)


def test_roots_non_injective_flavors():
    zero = zeros(Integers(), 1, 1)
    est = det_integers(zero, 1)
    assert est.value == 0.0 and est.diagnostics.get("non_injective")


def test_roots_requires_square_and_positive_t():
    with pytest.raises(ValueError):
        det_integers(zeros(Integers(), 1, 2), 1)
    with pytest.raises(ValueError):
        det_integers(GroupRingMatrix.identity(Integers(), 1), 0)


# --- det_free_abelian ----------------------------------------------------------


def test_quadrature_boyd_value():
    m = one_by_one(
        z2elt({(0, 0): {0: 1}, (1, 0): {0: 1}, (0, 1): {0: 1}})
    )  # Id + R_x + R_y
    est = det_free_abelian(m, 1)
    assert est.method == "quadrature"
    assert est.error_bound is not None
    assert abs(est.value - BOYD) <= est.error_bound


def test_quadrature_monomial_is_unitary():
    m = one_by_one(z2elt({(1, 0): {0: 1}}))
    est = det_free_abelian(m, 1)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_univariate_reduction():
    m = one_by_one(z2elt({(0, 0): {0: 1}, (1, 0): {0: Fraction(-1, 2)}}))
    est = det_free_abelian(m, 1)
    assert est.method == "roots"
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_diagonal_support():
    # both axes used, but the support lies on one line: 1 - 2 w, w = z1 z2,
    # is solved by its roots
    m = one_by_one(z2elt({(0, 0): {0: 1}, (1, 1): {0: -2}}))
    est = det_free_abelian(m, 1)
    assert (est.method, est.diagnostics) == ("roots", {"reduced_to_univariate": True, "root_bits": 53})
    assert est.value == pytest.approx(2.0, abs=1e-12)


def test_quadrature_high_dimension_capped():
    # (1 - t z1 z2)(2 + z3 z4): a rank-2 support that uses all four axes,
    # so the torus is integrated, with Mahler measure 2 max(1, t)
    grp = FreeAbelian(4)
    e = GroupRingElement(grp, {
        (0, 0, 0, 0): TPoly({0: 2}), (0, 0, 1, 1): TPoly({0: 1}),
        (1, 1, 0, 0): TPoly({1: -2}), (1, 1, 1, 1): TPoly({1: -1}),
    })
    m = GroupRingMatrix(grp, [[e]])
    for t0 in (Fraction(1, 2), 2):
        est = det_free_abelian(m, t0)
        assert max(est.diagnostics["grids"]) ** est.diagnostics["torus_dim"] <= 2**26
        assert est.value == pytest.approx(2 * float(max(Fraction(1), Fraction(t0))), abs=1e-4)


def test_quadrature_rank_one_supports_are_exact():
    # sigma_1^k on 2 strands over ab: det(E) = +-z1^a z2^b t^k - 1 has a
    # rank-1 support on both axes, so F = max(1, t^k) / max(1, t)^2 comes
    # from one root solve, also at t = 1, where the torus grid sits on the
    # zero set of the determinant; for k = 2, 3 the polynomial in the
    # line's step is linear, its root one quotient, and for k = 4, 6 it is
    # the binomial X^(k/2) - 1, so every bound is a rounding bound
    cases = (((1, 1), 2), ((-1, -1), -2), ((1, 1, 1), 3), ((1,) * 4, 4), ((-1,) * 4, -4),
             ((1,) * 6, 6))
    for letters, k in cases:
        for t0 in (Fraction(1, 2), Fraction(1), Fraction(2)):
            f = fq_value(BraidWord(2, letters), AbelianImage(), t0)
            want = max(1.0, float(t0) ** k) / max(1.0, float(t0)) ** 2
            assert f.estimate.diagnostics == {"reduced_to_univariate": True, "root_bits": 53}
            assert f.error_bound <= 1e-14 * max(1, want)
            assert abs(f.value - want) <= f.error_bound, (letters, t0)
    # sigma_1^+-1 over id: a rank-1 subgroup, det(E) = -(z t)^+-1 - 1, so
    # F = max(1, t^+-1) / max(1, t)^2, exactly
    exact = {1: (1, 1, 0.5), -1: (2, 1, 0.25)}
    for letter, values in exact.items():
        for t0, want in zip((Fraction(1, 2), Fraction(1), Fraction(2)), values):
            f = fq_value(BraidWord(2, (letter,)), Identity(), t0)
            assert f.estimate.diagnostics["subgroup_rank"] == 1
            assert f.error_bound <= 1e-14 * max(1, want)
            assert f.value == want, (letter, t0)
    # a rank-1 support on four axes needs no grid either
    e = GroupRingElement(FreeAbelian(4), {(0, 0, 0, 0): TPoly({0: 1}), (1, 1, 1, 1): TPoly({1: -1})})
    for t0 in (Fraction(1, 2), 2):
        est = det_free_abelian(GroupRingMatrix(FreeAbelian(4), [[e]]), t0)
        assert est.method == "roots"
        assert est.value == pytest.approx(float(max(Fraction(1), t0)), abs=1e-12)


def test_quadrature_grid_validation():
    m = one_by_one(z2elt({(0, 0): {0: 1}}))
    with pytest.raises(ValueError):
        det_free_abelian(m, 1, grid=32)


def per_term_values(P, d, n_grid):
    """P on the midpoint grid: one complex exp per term per point, summed as given."""
    theta = 2.0 * np.pi * (np.arange(n_grid) + 0.5) / n_grid
    grids = np.meshgrid(*([theta] * d), indexing="ij")
    acc = np.zeros((n_grid,) * d, dtype=complex)
    for k, c in P.items():
        acc += float(c) * np.exp(1j * sum(k[a] * grids[a] for a in range(d)))
    return acc


def mean_log(M):
    with np.errstate(divide="ignore"):
        L = np.log(M)
    return float(np.where(np.isfinite(L), L, np.log(1e-300)).mean())


def per_term_log_abs_mean(P, d, n_grid):
    """Reference: the mean of log|P| over the grid, from :func:`per_term_values`."""
    return mean_log(np.abs(per_term_values(P, d, n_grid)))


def per_term_jensen_mean(P, d, n_grid):
    """Reference for a span-1 axis 0, P = x0^lo (A + B x0): the mean of
    log max(|A|, |B|) over the grid of the other d - 1 axes."""
    lo = min(k[0] for k in P)
    A, B = ({k[1:]: c for k, c in P.items() if k[0] == lo + i} for i in (0, 1))
    return mean_log(np.maximum(*(np.abs(per_term_values(Q, d - 1, n_grid)) for Q in (A, B))))


@pytest.mark.parametrize(
    "d, n_grid", [(2, 64), (2, 33), (3, 16), (3, 32), (3, 17), (4, 16), (4, 20)]
)
def test_log_abs_mean_matches_per_term_sum(rng, d, n_grid):
    for _ in range(3):
        P = {}
        for _ in range(rng.randint(2, 7)):
            k = tuple(rng.randint(-2, 1) for _ in range(d))
            P[k] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        ref = per_term_log_abs_mean(P, d, n_grid)
        assert fkdet._log_abs_mean(P, d, n_grid) == pytest.approx(ref, rel=1e-12)
        # the same terms with axis 0 squeezed to span 1, integrated by Jensen
        J = {(i % 2 - 1,) + k[1:]: c for i, (k, c) in enumerate(P.items())}
        ref = per_term_jensen_mean(J, d, n_grid)
        assert fkdet._log_abs_mean(J, d, n_grid, pair=True) == pytest.approx(ref, rel=1e-12)


def test_quadrature_ignores_term_order():
    # det(Burau - Id) of 1 -2 1 -2 over the images (1,0), (0,1), (1,1);
    # a sum in dict order gives these two orders bounds 2e-11 apart
    terms = [
        ((0, 1), {0: 1, 1: 1}),
        ((0, -1), {-1: 1}),
        ((-1, -1), {-2: -1}),
        ((1, 2), {2: -1}),
        ((1, 1), {1: 1}),
        ((-1, 0), {-1: 1}),
    ]
    a, b = (
        fkdet.quadrature_estimate(
            FreeAbelian(2), {(k, e): c for k, cs in order for e, c in cs.items()}, 1
        )
        for order in (terms, terms[::-1])
    )
    assert (a.value, a.error_bound) == (b.value, b.error_bound)


# --- det_free_group -------------------------------------------------------------


def test_series_boyd_free_value():
    m = one_by_one(felt(2, {"e": {0: 1}, "x1": {0: 1}, "x2": {0: 1}}))
    est = det_free_group(m, 1)
    assert abs(est.value - TWO_OVER_SQRT3) < 2e-2
    assert est.diagnostics["tail_model"] == "power"


def test_series_unitary():
    m = one_by_one(felt(2, {"x1 x2^-1 x1": {0: 1}}))
    est = det_free_group(m, 1)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_series_half_shift():
    m = one_by_one(felt(2, {"e": {0: 1}, "x1": {0: Fraction(-1, 2)}}))
    est = det_free_group(m, 1)
    assert abs(est.value - 1.0) < 5e-3


def test_series_validation():
    m = one_by_one(felt(2, {"e": {0: 1}}))
    with pytest.raises(ValueError):
        det_free_group(m, 1, series_len=4)
    with pytest.raises(ValueError):
        det_free_group(m, 1, series_len=513)
    with pytest.raises(ValueError):
        det_free_group(zeros(Free(2), 1, 2), 1)


def test_epsilon_validation():
    m = one_by_one(felt(2, {"e": {0: 1}}))
    for bad in (4, 513):
        with pytest.raises(ValueError):
            det_epsilon_reg(m, 1, series_len=bad)
    with pytest.raises(ValueError, match="at least 8"):
        det_epsilon_reg(m, 1, series_len=2)


def test_series_and_eps_front_end_order():
    # series refuses the group before it reads series_len; eps answers an
    # empty E and reads the group only once E is nonzero
    ab = FreeAbelian(2)
    one = z2elt({(0, 0): {0: 1}})
    with pytest.raises(ValueError, match="det_free_group needs a Free coefficient group"):
        fkdet.series_estimate(ab, [[fkdet._flat(one)]], 1, series_len=4)
    est = fkdet.epsilon_estimate(ab, [], 1)
    assert (est.value, est.error_bound, est.diagnostics) == (1.0, 0.0, {"empty": True})
    with pytest.raises(ValueError, match="epsilon regularization runs over Z or free groups"):
        fkdet.epsilon_estimate(ab, [[fkdet._flat(one)]], 1)
    E = [[fkdet._flat(felt(2, {"e": {0: 1}}))]]
    for estimate in (fkdet.series_estimate, fkdet.epsilon_estimate):
        for bad in (4, 513):
            with pytest.raises(ValueError, match="series_len must be"):
                estimate(Free(2), E, 1, bad)


def test_series_no_accel_bound_is_honest():
    m = one_by_one(felt(2, {"e": {0: 1}, "x1": {0: 1}, "x2": {0: 1}}))
    est = det_free_group(m, 1, series_len=12, accel=False)
    # far from converged, but the reported bound must cover the defect
    assert est.diagnostics["tail_vacuous"]
    assert abs(est.value - TWO_OVER_SQRT3) <= est.error_bound
    accel = det_free_group(m, 1, series_len=12, accel=True)
    assert not accel.diagnostics["tail_vacuous"]
    assert abs(accel.value - TWO_OVER_SQRT3) < 2e-2


def test_series_zero_matrix():
    est = det_free_group(zeros(Free(2), 1, 1), 1)
    assert est.value == 0.0 and est.diagnostics["non_injective"]


def test_series_induction_property():
    # an element supported on <x1> inside F3 has the same determinant over Z
    inner = {"e": {0: 1}, "x1": {0: Fraction(-1, 3)}, "x1^-1": {0: Fraction(1, 5)}}
    m3 = one_by_one(felt(3, inner))
    est = det_free_group(m3, 1)
    mz = one_by_one(
        zelt({0: {0: 1}, 1: {0: Fraction(-1, 3)}, -1: {0: Fraction(1, 5)}})
    )
    oracle = det_integers(mz, 1)
    assert abs(est.value - oracle.value) <= est.error_bound + 1e-12


def test_series_matrix_block_diagonal():
    # block diag of two unitaries: determinant 1, matrix path (no monomial
    # in the off-diagonal slots of one of the two layouts is fine too)
    grp = Free(2)
    a = felt(2, {"x1": {0: 1}})
    b = felt(2, {"x2": {0: 1}})
    zero = GroupRingElement.zero(grp)
    two = GroupRingElement(grp, {FreeWord.identity(2): TPoly({0: 2})})
    m = GroupRingMatrix(grp, [[a, zero], [zero, two]])
    est = det_free_group(m, 1)
    assert abs(est.value - 2.0) < 2e-2


def test_two_by_two_trick_against_commutative_oracle():
    # over Z the reduction must match the plain symbolic determinant
    a = zelt({0: {0: 1}, 1: {0: Fraction(1, 3)}})
    b = zelt({1: {0: 2}})
    c = zelt({0: {0: Fraction(1, 2)}})
    d = zelt({-1: {0: 1}, 0: {0: 1}})
    m = GroupRingMatrix(Integers(), [[a, b], [c, d]])
    oracle = det_integers(m, 1).value
    # rebuild the same matrix over Free(1) and use the free backend
    table = {0: "e", 1: "x1", -1: "x1^-1"}
    fm = GroupRingMatrix(
        Free(1),
        [
            [
                GroupRingElement(
                    Free(1),
                    {
                        parse_word(table[k], 1): tp
                        for k, tp in e.terms.items()
                    },
                )
                for e in row
            ]
            for row in m.entries
        ],
    )
    est = det_free_group(fm, 1)
    assert est.diagnostics.get("two_by_two_factor") == 2.0
    assert abs(est.value - oracle) <= est.error_bound + 1e-3


# --- det_epsilon_reg -------------------------------------------------------------


def test_epsilon_identity():
    est = det_epsilon_reg(GroupRingMatrix.identity(Integers(), 2), 1)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_epsilon_matches_roots_over_z():
    m = one_by_one(zelt({0: {0: 1}, 1: {1: -1}}))  # Id - t R_z
    for t0 in (Fraction(1, 2), 2):
        r = det_integers(m, t0)
        e = det_epsilon_reg(m, t0)
        assert abs(r.value - e.value) < 1e-6


def test_epsilon_agrees_with_series_on_boyd():
    m = one_by_one(felt(2, {"e": {0: 1}, "x1": {0: 1}, "x2": {0: 1}}))
    s = det_free_group(m, 1)
    e = det_epsilon_reg(m, 1)
    assert abs(s.value - e.value) <= s.error_bound + e.error_bound


def _minus_one_over_phi():
    """E = Burau(sigma_1^-1) - Id over the total-winding family: -1 - z^-1 at t = 1."""
    bm = reduced_burau(BraidWord(2, (-1,)), TotalWinding())
    return bm.matrix - GroupRingMatrix.identity(bm.matrix.group, 1)


def test_trace_moments_match_closed_form_over_z():
    E = _minus_one_over_phi()
    p = coefficients_at(E.entries[0][0], 1)
    b: dict[int, Fraction] = {}  # |p|^2 as a Laurent polynomial
    for i, ci in p.items():
        for j, cj in p.items():
            b[i - j] = b.get(i - j, Fraction(0)) + ci * cj
    c = sum(abs(v) for v in b.values())
    step = {k: (1 if k == 0 else 0) - v / c for k, v in b.items()}
    series_len, state_budget = 60, 400_000
    mom = _trace_moments(
        [[{word(1, ((1, k),)): float(v) for k, v in b.items()}]], 1, series_len, state_budget
    )
    assert mom.norm_bound == float(c)
    power = {0: Fraction(1)}
    for k in range(series_len):  # exact constant term of (1 - b/c)^(k+1)
        nxt: dict[int, Fraction] = {}
        for e1, c1 in power.items():
            for e2, c2 in step.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, Fraction(0)) + c1 * c2
        power = nxt
        assert abs(mom.taus[k] - float(power.get(0, 0))) <= 1e-12

    theta = 2.0 * np.pi * np.arange(4096) / 4096
    p_on_circle = sum(float(v) * np.exp(1j * k * theta) for k, v in p.items())
    est = det_epsilon_reg(E, 1, series_len=series_len, state_budget=state_budget)
    for eps, log_det in zip(est.diagnostics["epsilons"], est.diagnostics["log_dets"]):
        res = _series_from_moments(mom, True, eps)
        assert log_det == pytest.approx(res.log_det, abs=1e-12)
        trapezoid = float(np.mean(np.log(np.abs(p_on_circle) ** 2 + eps)))
        assert abs(log_det - trapezoid) <= res.error_log


def test_epsilon_walks_each_ball_once(monkeypatch):
    radii, walked = [], []

    class CountingBall(fkdet.FreeBall):
        def __init__(self, rank, radius):
            radii.append(radius)
            super().__init__(rank, radius)

        def runs(self, w):
            walked.append(w)
            return super().runs(w)

    monkeypatch.setattr(fkdet, "FreeBall", CountingBall)
    est = det_epsilon_reg(_minus_one_over_phi(), 1)
    assert len(est.diagnostics["epsilons"]) == 6
    # one ball: the radius-(R-1) check walks an index prefix of it
    assert radii == [est.diagnostics["radius"]]
    # one run list per {w, w^-1} pair: the mirror term reuses it
    assert walked
    assert len({frozenset((w, w.inverse())) for w in walked}) == len(walked)


def _ball_nodes(rank, radius):
    """The ball's words in suffix order, built from FreeWord products.

    Level by level, sorted by the reversed word with letters coded
    x_g -> 2(g - 1), x_g^-1 -> 2(g - 1) + 1.
    """
    code = {(g, s): 2 * (g - 1) + (s < 0) for g in range(1, rank + 1) for s in (1, -1)}
    gens = [FreeWord.gen(rank, g, s) for (g, s) in code]
    levels = [[FreeWord.identity(rank)]]
    for L in range(1, radius + 1):
        words = {u * a for u in levels[-1] for a in gens}
        level = [u for u in words if u.length() == L]
        level.sort(key=lambda u: [code[gs] for gs in reversed(list(u.letters()))])
        levels.append(level)
    return [u for level in levels for u in level]


def _ball_pairs(nodes, w):
    """Every (x, x w) with both ends among ``nodes``, by brute force."""
    index = {u: x for x, u in enumerate(nodes)}
    return [(x, index[u * w]) for x, u in enumerate(nodes) if u * w in index]


def _expand(runs):
    return [(s + i * ss, t + i * ts) for s, t, count, ss, ts in runs for i in range(count)]


def test_runs_are_in_ball_right_multiplication(rng):
    # every pair (x, x w) with both ends in the ball, whatever the path between
    for rank, radii in ((1, range(7)), (2, range(5)), (3, range(4))):
        for R in radii:
            ball = fkdet.FreeBall(rank, R)
            nodes = _ball_nodes(rank, R)
            assert ball.size == len(nodes) and max(w.length() for w in nodes) == R
            for length in range(10):
                w = random_word(rng, rank, length)
                runs = ball.runs(w)
                pairs = _expand(runs)
                src = [x for x, _ in pairs]
                assert len(set(src)) == len(src)
                assert sorted(pairs) == _ball_pairs(nodes, w)
                if rank == 1:  # strided runs interleave, but stay few at any radius
                    assert len(runs) <= 8
                    assert len(fkdet.FreeBall(1, 4096).runs(w)) <= 8
                else:  # unit-stride runs over disjoint source ranges
                    assert src == sorted(src)
                    assert len(runs) <= 8 * (R + 1) * (w.length() + 1)


def test_clipped_runs_are_the_smaller_ball(rng):
    for rank, radii in ((1, range(1, 7)), (2, range(1, 5)), (3, range(1, 4))):
        for R in radii:
            ball, small = fkdet.FreeBall(rank, R), fkdet.FreeBall(rank, R - 1)
            cut = ball.offsets[R]
            assert cut == small.size
            for length in range(10):
                w = random_word(rng, rank, length)
                clipped = [r for r in (fkdet._clip(r, cut) for r in ball.runs(w)) if r]
                assert sorted(_expand(clipped)) == sorted(_expand(small.runs(w)))


def _random_self_adjoint(rng, m, rank, coefficient=lambda rng: rng.uniform(-2.0, 2.0)):
    """m x m {word: coefficient} entries with entry (j, i) at w^-1 equal to (i, j) at w."""
    entries = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            for _ in range(rng.randint(1, 3)):
                w = random_word(rng, rank, rng.randint(0, 3))
                c = coefficient(rng)
                entries[i][j][w] = c
                entries[j][i][w.inverse()] = c
    return entries


def _integer_self_adjoint(rng, m, rank):
    return _random_self_adjoint(rng, m, rank, lambda rng: rng.choice((-2, -1, 1, 2)))


def _diffusion(rng, m, rank):
    """+-1 terms on words of length 1 to 3 and, on the diagonal, their
    count in the row, or 16 less it if that is more: B is positive, its
    norm bound is at least 16 times every other coefficient, and its
    traces decay slowly enough to stay normal floats over 512 steps."""
    entries = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            for _ in range(6 if i == j else 3):
                w = random_word(rng, rank, rng.randint(1, 3))
                if not w.is_identity():
                    c = rng.choice((-1, 1))
                    entries[i][j][w] = c
                    entries[j][i][w.inverse()] = c
    for i, row in enumerate(entries):
        count = sum(len(e) for e in row)
        row[i][FreeWord.identity(rank)] = max(count, 16 - count)
    return entries


def _full_walk(entries, nodes, c, series_len):
    """tr((P (Id - B/c) P)^k), k = 1..K: K plain steps over every entry term."""
    m = len(entries)
    words = {w for row in entries for e in row for w in e}
    pairs = {w: np.array(_ball_pairs(nodes, w), dtype=np.int64).reshape(-1, 2).T for w in words}
    taus = np.zeros(series_len)
    for comp in range(m):
        v = np.zeros((m, len(nodes)))
        v[comp, 0] = 1.0
        for k in range(series_len):
            nv = v.copy()
            for i in range(m):
                for j in range(m):
                    for w, cw in entries[i][j].items():
                        src, tgt = pairs[w]
                        nv[i][tgt] -= cw / c * v[j][src]
            v = nv
            taus[k] += v[comp, 0]
    return taus


def _record_sparse_steps(monkeypatch) -> list[tuple[int, int]]:
    """(sparse steps taken, steps) of every component walk from now on."""
    taken = []
    sparse_steps = fkdet._sparse_steps

    def recording(diag, terms, bufs, comp, n_steps, taus):
        k = sparse_steps(diag, terms, bufs, comp, n_steps, taus)
        taken.append((k, n_steps))
        return k

    monkeypatch.setattr(fkdet, "_sparse_steps", recording)
    return taken


# the switch share of the sparse start: None keeps the module's, which on
# these small balls switches mid-walk; 0 walks densely from the first
# step and 1 on the support to the last.  Float coefficients leave one
# unit term; integer ones give unit and non-unit runs; the diffusion walks
# 512 traces, on scaled vectors that would overflow without the
# power-of-two rescale
@pytest.mark.parametrize(
    "m, share, operator",
    [pytest.param(m, None, _random_self_adjoint, id=str(m)) for m in (1, 2, 3)]
    + [
        pytest.param(m, share, _random_self_adjoint, id=f"{name}-{m}")
        for name, share in (("dense", 0.0), ("sparse", 1.0))
        for m in (1, 2, 3)
    ]
    + [
        pytest.param(m, None, operator, id=f"{name}-{m}")
        for name, operator in (("integer", _integer_self_adjoint), ("512", _diffusion))
        for m in (1, 2)
    ],
)
def test_half_walk_matches_full_walk(rng, monkeypatch, m, share, operator):
    # slice long runs and gather short ones here, as on full-size balls
    monkeypatch.setattr(fkdet, "_SHORT_RUN", 3)
    if share is not None:
        monkeypatch.setattr(fkdet, "_SPARSE_SHARE", share)
    taken = _record_sparse_steps(monkeypatch)
    plans = []  # (s, slice updates, gathers) of every dense walk
    dense_updates = fkdet._dense_updates

    def recording(*args):
        plans.append(dense_updates(*args))
        return plans[-1]

    monkeypatch.setattr(fkdet, "_dense_updates", recording)
    series_lens = (512,) if operator is _diffusion else (13, 20)
    for rank in (1, 2, 3):
        entries = operator(rng, m, rank)
        for series_len in series_lens:
            mom = _trace_moments(entries, rank, series_len, 2_000)
            R = mom.radius
            assert R > 2
            nodes = _ball_nodes(rank, R)
            for got, radius in ((mom.taus, R), (mom.taus_small, R - 1)):
                size = fkdet.FreeBall(rank, radius).size
                want = _full_walk(entries, nodes[:size], mom.norm_bound, series_len)
                assert len(got) == series_len and np.all(np.isfinite(got))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    coefficients = [abs(a) for _, slices, _ in plans for a, *_ in slices]
    assert 1.0 in coefficients and any(gathers for *_, gathers in plans)
    if operator is _integer_self_adjoint:
        assert any(a != 1.0 for a in coefficients)
    if operator is _diffusion:  # s is a coefficient of Id - B/c0
        assert all(s <= 1 / 16 for s, *_ in plans)
    # rank 1 walks densely; the others start sparse as the share says
    assert taken
    if share == 0.0:
        assert all(k == 0 for k, _ in taken)
    elif share == 1.0:
        assert all(k == n for k, n in taken)
    else:
        assert any(0 < k < n for k, n in taken)


@pytest.mark.parametrize(
    "letters, strands, rule",
    [((-1, 2), 3, 9), ((1, -2), 3, 7), ((2, 1, -2, -2), 3, 3), ((1, 2, 3), 4, 9)],
    ids=lambda x: " ".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_exact_moments_survive_a_larger_ball(monkeypatch, letters, strands, rule):
    walked = []

    def recording(entries, rank, series_len, state_budget):
        mom = _trace_moments(entries, rank, series_len, state_budget)
        walked.append((entries, rank, series_len, mom))
        return mom

    monkeypatch.setattr(fkdet, "_trace_moments", recording)
    est = fq_value(BraidWord(strands, letters), Identity(), 1).estimate
    assert len(walked) == 1
    entries, rank, series_len, mom = walked[0]
    K0 = est.diagnostics["exact_moments"]
    assert K0 == mom.exact_moments == rule
    # the next ball up sees the same first K0 traces
    bigger = _trace_moments(entries, rank, K0, fkdet.FreeBall(rank, mom.radius + 1).size)
    assert bigger.radius == mom.radius + 1
    np.testing.assert_allclose(mom.taus[:K0], bigger.taus, rtol=1e-12, atol=0)


def _walk_input(monkeypatch, letters, strands, method=None) -> tuple:
    """The arguments ``fq_value`` hands ``_trace_moments`` for a braid over id at t = 1."""
    walked = []

    def recording(*args):
        walked.append(args)
        return _trace_moments(*args)

    monkeypatch.setattr(fkdet, "_trace_moments", recording)
    fq_value(BraidWord(strands, letters), Identity(), 1, method=method)
    monkeypatch.setattr(fkdet, "_trace_moments", _trace_moments)
    assert len(walked) == 1
    return walked[0]


# the operators the free-markov benchmark walks: fq over id, the
# conjugation pair of its markov request, and the eps request
@pytest.mark.parametrize(
    "letters, strands, method",
    [
        ((1, 2, 3), 4, None),
        ((1, -2, 1, -2), 3, None),
        ((1, -2), 3, None),
        ((2, 1, -2, -2), 3, None),
        ((-1, 2), 3, "eps"),
    ],
    ids=lambda x: " ".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_sparse_start_keeps_the_dense_traces(monkeypatch, letters, strands, method):
    args = _walk_input(monkeypatch, letters, strands, method)
    taken = _record_sparse_steps(monkeypatch)
    got = _trace_moments(*args)
    assert any(k > 0 for k, _ in taken)
    monkeypatch.setattr(fkdet, "_SPARSE_SHARE", 0.0)
    dense = _trace_moments(*args)
    np.testing.assert_allclose(got.taus, dense.taus, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.taus_small, dense.taus_small, rtol=1e-12, atol=0)
    assert (got.radius, got.norm_bound, got.exact_moments) == (
        dense.radius,
        dense.norm_bound,
        dense.exact_moments,
    )


def test_sparse_start_needs_little_beyond_the_dense_buffers(monkeypatch):
    # the mask and the support indices ride on the two walk buffers
    args = _walk_input(monkeypatch, (1, 2, 3), 4)
    entries, rank, _, state_budget = args
    size = fkdet.FreeBall(rank, fkdet._ball_radius_for(rank, state_budget)).size
    buffers = 2 * len(entries) * size * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        _trace_moments(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * buffers


def test_half_walk_rejects_non_self_adjoint():
    x1 = parse_word("x1", 2)
    e = FreeWord.identity(2)
    with pytest.raises(ValueError, match="self-adjoint"):
        _trace_moments([[{e: 2.0, x1: 1.0}]], 2, 10, 2_000)  # no x1^-1 term
    with pytest.raises(ValueError, match="self-adjoint"):
        _trace_moments([[{e: 2.0, x1: 1.0, x1.inverse(): 0.5}]], 2, 10, 2_000)
    with pytest.raises(ValueError, match="self-adjoint"):
        _trace_moments([[{e: 2.0}, {x1: 1.0}], [{x1: 1.0}, {e: 2.0}]], 2, 10, 2_000)


def test_epsilon_rejects_zd():
    with pytest.raises(ValueError):
        det_epsilon_reg(GroupRingMatrix.identity(FreeAbelian(2), 1), 1)


# --- determinant properties across backends ---------------------------------------


def rand_z_matrix(rng, size=2, span=2):
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                terms[rng.randint(-span, span)] = TPoly(
                    {rng.randint(-1, 1): Fraction(rng.randint(-2, 2))}
                )
            row.append(GroupRingElement(Integers(), terms))
        rows.append(row)
    return GroupRingMatrix(Integers(), rows)


def test_multiplicativity_over_z(rng):
    t0 = Fraction(3, 2)
    done = 0
    while done < 15:
        A = rand_z_matrix(rng)
        B = rand_z_matrix(rng)
        if coefficients_at(A.determinant(), t0) and coefficients_at(B.determinant(), t0):
            dA = det_integers(A, t0).value
            dB = det_integers(B, t0).value
            dAB = det_integers(matmul(A, B), t0).value
            assert abs(dAB - dA * dB) <= 1e-9 * max(1.0, abs(dA * dB))
            done += 1


def test_block_triangular_over_z(rng):
    t0 = 1
    for _ in range(10):
        A = rand_z_matrix(rng)
        B = rand_z_matrix(rng)
        if not (
            coefficients_at(A.determinant(), t0)
            and coefficients_at(B.determinant(), t0)
        ):
            continue
        C = rand_z_matrix(rng)
        Z = zeros(Integers(), 2, 2)
        upper = block_assemble([[A, C], [Z, B]])
        lower = block_assemble([[A, Z], [C, B]])
        target = det_integers(A, t0).value * det_integers(B, t0).value
        assert det_integers(upper, t0).value == pytest.approx(target, rel=1e-9)
        assert det_integers(lower, t0).value == pytest.approx(target, rel=1e-9)


def test_adjoint_symmetry(rng):
    t0 = Fraction(4, 3)
    for _ in range(10):
        A = rand_z_matrix(rng)
        if not coefficients_at(A.determinant(), t0):
            continue
        assert det_integers(A, t0).value == pytest.approx(
            det_integers(adjoint(A), t0).value, rel=1e-9
        )


def test_two_by_two_trick_identity_over_z(rng):
    # det [[A,B],[C,D]] = det(B) det(A B^-1 D - C) when B is a monomial
    t0 = Fraction(1, 2)
    done = 0
    while done < 10:
        A = rand_z_matrix(rng, size=1)
        C = rand_z_matrix(rng, size=1)
        D = rand_z_matrix(rng, size=1)
        k = rng.randint(-2, 2)
        B = GroupRingMatrix(
            Integers(),
            [[GroupRingElement(Integers(), {k: TPoly({0: rng.choice((1, 2, -1))})})]],
        )
        m = block_assemble([[A, B], [C, D]])
        P = coefficients_at(m.determinant(), t0)
        if not P:
            continue
        b = B.entries[0][0]
        binv = GroupRingElement(
            Integers(),
            {
                -next(iter(b.terms)): TPoly({0: 1 / next(iter(b.terms.values())).coeffs[0]})
            },
        )
        schur = mul(mul(A.entries[0][0], binv), D.entries[0][0]) - C.entries[0][0]
        lhs = det_integers(m, t0).value
        rhs = det_integers(one_by_one(b), t0).value * det_integers(
            one_by_one(schur), t0
        ).value
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        done += 1


def test_dilations_all_backends():
    lam = Fraction(-5, 2)
    for size in (1, 2):
        mz = scale(GroupRingMatrix.identity(Integers(), size), lam)
        assert det_integers(mz, 1).value == pytest.approx(2.5**size, rel=1e-12)
        ma = scale(GroupRingMatrix.identity(FreeAbelian(2), size), lam)
        assert det_free_abelian(ma, 1).value == pytest.approx(2.5**size, rel=1e-9)
        mf = scale(GroupRingMatrix.identity(Free(2), size), lam)
        assert det_free_group(mf, 1).value == pytest.approx(2.5**size, rel=1e-9)
        me = det_epsilon_reg(mz, 1)
        assert me.value == pytest.approx(2.5**size, rel=1e-6)


def _free_matrix(rows):
    return GroupRingMatrix(Free(2), [[felt(2, e) for e in row] for row in rows])


ONE, THREE = {0: 1}, {0: 3}
BOYD_FREE = {"e": ONE, "x1": ONE, "x2": ONE}
# B = x1 is one term, so det = |1| det(A B^-1 D - C), a rank-2 walk
SCHUR_2X2 = [[{"e": ONE, "x2": ONE}, {"x1": ONE}], [{"e": ONE}, {"x2": ONE}]]
# m >= 3 walks M* M whole
WALK_3X3 = [
    [{"e": THREE, "x1": ONE}, {"x2": ONE}, {}],
    [{}, {"e": THREE, "x2": ONE}, {"x1": ONE}],
    [{"x1": ONE}, {}, {"e": THREE}],
]


# every return path of every backend: (estimate, what marks the path)
@pytest.mark.parametrize(
    "run, path",
    [
        pytest.param(lambda: det_integers(one_by_one(zelt({0: {0: 1}, 1: {1: -1}})), 2),
                     lambda est: "cyclotomic_factor" in est.diagnostics, id="roots-winding"),
        pytest.param(lambda: det_integers(one_by_one(zelt({0: {0: 1}, 1: {0: Fraction(1, 2)}})), 2),
                     lambda est: "cyclotomic_factor" not in est.diagnostics and est.value > 0,
                     id="roots-substituted"),
        pytest.param(lambda: det_integers(one_by_one(zelt({0: {0: 1, 1: -1}})), 1),
                     lambda est: est.diagnostics.get("non_injective"), id="roots-zero"),
        pytest.param(lambda: det_free_abelian(
                         one_by_one(z2elt({(0, 0): {0: 1}, (1, 0): {0: 1}, (0, 1): {0: 1}})), 1),
                     lambda est: est.method == "quadrature" and "grids" in est.diagnostics,
                     id="quad-grid"),
        pytest.param(lambda: det_free_abelian(one_by_one(z2elt({(0, 0): {0: 1}, (1, 0): {0: 2}})), 1),
                     lambda est: est.diagnostics.get("reduced_to_univariate"), id="quad-univariate"),
        pytest.param(lambda: det_free_abelian(zeros(FreeAbelian(2), 1, 1), 1),
                     lambda est: est.diagnostics.get("non_injective"), id="quad-zero"),
        pytest.param(lambda: fkdet.series_estimate(Free(2), [], 1),
                     lambda est: est.diagnostics.get("empty"), id="series-empty"),
        pytest.param(lambda: det_free_group(zeros(Free(2), 2, 2), 1),
                     lambda est: est.diagnostics.get("non_injective"), id="series-zero"),
        pytest.param(lambda: det_free_group(one_by_one(felt(2, {"e": {0: 1}, "x1 x2": {0: 2}})), 1),
                     lambda est: est.diagnostics.get("subgroup_rank") == 1, id="series-rank-1"),
        pytest.param(lambda: det_free_group(one_by_one(felt(2, BOYD_FREE)), 1),
                     lambda est: est.diagnostics.get("subgroup_rank") == 2, id="series-1x1"),
        pytest.param(lambda: det_free_group(_free_matrix(SCHUR_2X2), 1),
                     lambda est: est.diagnostics.get("two_by_two_factor") == 1.0, id="series-2x2"),
        pytest.param(lambda: det_free_group(_free_matrix(WALK_3X3), 1, series_len=8),
                     lambda est: est.diagnostics.get("injectivity_assumed"), id="series-3x3"),
        pytest.param(lambda: fkdet.epsilon_estimate(Free(2), [], 1),
                     lambda est: est.diagnostics.get("empty"), id="eps-empty"),
        pytest.param(lambda: det_epsilon_reg(zeros(Free(2), 1, 1), 1),
                     lambda est: est.diagnostics.get("non_injective"), id="eps-zero"),
        pytest.param(lambda: det_epsilon_reg(one_by_one(zelt({0: {0: 1}, 1: {1: -1}})), 2),
                     lambda est: est.diagnostics["rank"] == 1, id="eps-integers"),
        pytest.param(lambda: det_epsilon_reg(one_by_one(felt(2, BOYD_FREE)), 1),
                     lambda est: est.diagnostics["rank"] == 2, id="eps-free"),
    ],
)
def test_every_bound_is_a_finite_float(run, path):
    est = run()
    assert path(est)
    assert type(est.error_bound) is float
    assert math.isfinite(est.error_bound) and est.error_bound >= 0.0


# --- folding ----------------------------------------------------------------------


def test_fold_powers_collapse_to_cyclic():
    words = [parse_word("x1 x1", 1), parse_word("x1 x1 x1", 1)]
    rank, rewritten = fold_subgroup_basis(words)
    assert rank == 1
    assert rewritten[0].length() == 2 and rewritten[1].length() == 3


def test_fold_redundant_generator():
    words = [parse_word(w, 2) for w in ("x1", "x1 x2", "x1 x2 x2")]
    rank, rewritten = fold_subgroup_basis(words)
    assert rank == 2
    assert rewritten[0].length() == 1


def test_fold_free_pair_shortens():
    words = [parse_word(w, 3) for w in ("x2 x3^-1", "x1^-1 x2 x3^-1")]
    rank, rewritten = fold_subgroup_basis(words)
    assert rank == 2
    # any free basis will do, but the rewrite must shorten the words
    assert max(w.length() for w in rewritten) <= 2


def test_fold_trivial_words():
    rank, rewritten = fold_subgroup_basis([FreeWord.identity(2)])
    assert rank == 1 and rewritten[0].is_identity()


def test_fold_preserves_products(rng):
    # rewriting is a homomorphism: check on random pairs via concatenation
    for _ in range(15):
        ws = [random_word(rng, 3, rng.randint(1, 6)) for _ in range(3)]
        rank, rewritten = fold_subgroup_basis(ws + [ws[0] * ws[1]])
        assert rewritten[0] * rewritten[1] == rewritten[3]


def _same_up_to_renumbering(got, want) -> bool:
    """True when one permutation of generator indices turns got into want."""
    perm: dict[int, int] = {}
    for g, w in zip(got, want):
        gl, wl = list(g.letters()), list(w.letters())
        if len(gl) != len(wl):
            return False
        for (a, s), (b, t) in zip(gl, wl):
            if s != t or perm.setdefault(a, b) != b:
                return False
    return len(set(perm.values())) == len(perm)


def test_fold_matches_rescan_reference_on_random_sets():
    rng = random.Random(20261019)
    for _ in range(400):
        rank = rng.randint(1, 3)
        ws = [random_word(rng, rank, rng.randint(0, 8)) for _ in range(rng.randint(1, 5))]
        got_rank, got = fold_subgroup_basis(ws)
        want_rank, want = rescan_fold_subgroup_basis(ws)
        assert got_rank == want_rank
        assert _same_up_to_renumbering(got, want), ws


FREE_MARKOV_ID_BRAIDS = [(-1,), (-1, 2), (1, -2), (2, 1, -2, -2), (1, -2, 1, -2), (1, 2, 3)]


@pytest.mark.parametrize("letters", FREE_MARKOV_ID_BRAIDS)
def test_fold_matches_rescan_reference_on_free_markov_supports(letters, monkeypatch):
    beta = BraidWord(max(abs(g) for g in letters) + 1, letters)
    support = [[_at(e, 1) for e in row] for row in _minus_identity(beta, Identity())]
    a_star_a = fkdet._walk_matrix(support)
    folded = [sorted({w for row in a_star_a for e in row for w in e}, key=Free.sort_key)]
    fold = fkdet.fold_subgroup_basis

    def recording(words):
        folded.append(list(words))
        return fold(words)

    monkeypatch.setattr(fkdet, "fold_subgroup_basis", recording)
    fq_value(beta, Identity(), 1)
    assert len(folded) > 1  # the estimate itself rewrote a support
    for words in folded:
        assert fold(words) == rescan_fold_subgroup_basis(words)


def test_fq_seven_letter_identity_within_budget():
    # the restart-after-every-merge fold spent over 10 s folding this A*A support
    start = time.perf_counter()
    v = fq_value(BraidWord(4, (1, -2, 3, 1, -2, 3, 1)), Identity(), 1)
    assert time.perf_counter() - start < 5.0
    assert v.value == pytest.approx(4.841108685558774, rel=1e-9)
    assert v.error_bound == pytest.approx(46.68375693302155, rel=1e-9)


def test_mahler_univariate_constant():
    value, err = mahler_univariate({3: Fraction(-7)})
    assert value == pytest.approx(7.0)


GOLDEN = (3 + math.sqrt(5)) / 2  # M(z^2 - 3z + 1), its root outside the circle
CYCLO6 = (1, -1, 1)  # 1 - z + z^2, roots on the unit circle
LEHMER_LIKE = (1, -3, 1)  # z^2 - 3z + 1


def power_product(*factors):
    """{exponent: Fraction} of prod f^m over (ascending int coefficients f, m)."""
    p = [1]
    for f, m in factors:
        for _ in range(m):
            p = [
                sum(p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < len(f))
                for k in range(len(p) + len(f) - 1)
            ]
    return {k: Fraction(c) for k, c in enumerate(p) if c}


@pytest.mark.parametrize(
    "coeffs, value",
    [
        ({0: 12, 1: -8, 2: -1, 3: 1}, 12.0),  # (z - 2)^2 (z + 3)
        ({0: 1, 1: -2, 2: 3, 3: -2, 4: 1}, 1.0),  # (1 - z + z^2)^2
        ({-2: 1, -1: -2, 0: 3, 1: -2, 2: 1}, 1.0),  # the same, Laurent-shifted
        (power_product((CYCLO6, 4)), 1.0),
        (power_product(((2, 1), 6)), 64.0),
        (power_product((LEHMER_LIKE, 4)), GOLDEN**4),
        (power_product(((-1, 1), 8), ((1, 1), 8), (LEHMER_LIKE, 1)), GOLDEN),
    ]
    + [(power_product((LEHMER_LIKE, m), (CYCLO6, 9 - m)), GOLDEN**m) for m in range(1, 9)],
)
def test_mahler_univariate_repeated_roots(coeffs, value):
    # an m-fold root costs np.roots all but 1/m of its digits; the exact
    # square-free split runs at every multiplicity and gets them back
    got, err = mahler_univariate({k: Fraction(c) for k, c in coeffs.items()})
    assert abs(got - value) <= min(err, 1e-12 * value)


def test_mahler_univariate_binomials_are_exact():
    # the roots of 2 - z^3 all have modulus 2^(1/3), so M = max(2, 1) = 2
    # with no root solve, also for its square, which Yun's split sends
    # through the same binomial as a part of multiplicity 2
    for coeffs, value, parts in (({0: 2, 3: -1}, 2.0, None), ({0: 4, 3: -4, 6: 1}, 4.0, [2])):
        solve = fkdet.UnivariateRoots({k: Fraction(c) for k, c in coeffs.items()})
        assert solve.multiplicities == parts
        got, err = solve.at(1)
        assert got == value and err <= 1e-14 * value


def test_yun_over_z_matches_yun_over_fractions(rng):
    # the primitive pseudo-remainder gcds give the same monic parts as
    # Euclid over Q, on f g^2 h^3 with a rational scale
    def poly(degree):
        p = [rng.randint(-9, 9) for _ in range(degree)]
        return p + [rng.choice((-3, -2, -1, 1, 2, 3))]

    def times(a, b):
        return [
            sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)
        ]

    for _ in range(40):
        f, g, h = poly(rng.randint(1, 4)), poly(rng.randint(1, 3)), poly(rng.randint(1, 2))
        p = times(times(f, times(g, g)), times(h, times(h, h)))
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        p = [c * scale for c in p]
        parts = fkdet._squarefree_parts(p)
        assert parts == fraction_squarefree_parts(p)
        assert max(m for _, m in parts) >= 2


def test_lead_divisible_by_the_gate_prime_routes_to_yun():
    # modulo q = 2^61 - 1 the lead vanishes, so the gate proves nothing and
    # the exact split decides: (2^61 - 1) z + 1 is square-free
    q = 2**61 - 1
    assert not fkdet._squarefree_mod_p([1, q])
    solve = fkdet.UnivariateRoots({0: 1, 1: q})
    assert solve.multiplicities == [1]
    value, err = solve.at(1)
    assert abs(value - q) <= err
