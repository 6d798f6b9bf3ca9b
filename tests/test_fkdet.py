"""Determinant backends against closed forms and each other.

The root method over Z is exact up to root finding and serves as the
oracle for the quadrature, series, and epsilon backends wherever their
domains overlap.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from l2burau import fkdet
from l2burau.braid import BraidWord
from l2burau.epifamilies import Identity, TotalWinding
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
from l2burau.freegroup import FreeWord, parse_word, random_word, word
from l2burau.groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
)
from l2burau.torsion import fq_value, reduced_burau

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


def test_roots_non_injective_flavors():
    zero = GroupRingMatrix.zeros(Integers(), 1, 1)
    est = det_integers(zero, 1)
    assert est.value == 0.0 and est.diagnostics.get("non_injective")


def test_roots_requires_square_and_positive_t():
    with pytest.raises(ValueError):
        det_integers(GroupRingMatrix.zeros(Integers(), 1, 2), 1)
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
    # both axes used, but the zero set is a diagonal subtorus
    m = one_by_one(z2elt({(0, 0): {0: 1}, (1, 1): {0: -2}}))
    est = det_free_abelian(m, 1)
    assert est.method == "quadrature"
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_quadrature_high_dimension_capped():
    grp = FreeAbelian(4)
    e = GroupRingElement(
        grp, {(0, 0, 0, 0): TPoly.const(1), (1, 1, 1, 1): TPoly.t_power(1, -1)}
    )
    m = GroupRingMatrix(grp, [[e]])
    for t0 in (Fraction(1, 2), 2):
        est = det_free_abelian(m, t0)
        assert max(est.diagnostics["grids"]) ** 4 <= 2**26
        assert est.value == pytest.approx(float(max(Fraction(1), Fraction(t0))), abs=1e-4)


def test_quadrature_grid_validation():
    m = one_by_one(z2elt({(0, 0): {0: 1}}))
    with pytest.raises(ValueError):
        det_free_abelian(m, 1, grid=32)


def per_term_log_abs_mean(P, d, n_grid):
    """Reference: one complex exp per term per grid point, summed as given."""
    theta = 2.0 * np.pi * (np.arange(n_grid) + 0.5) / n_grid
    grids = np.meshgrid(*([theta] * d), indexing="ij")
    acc = np.zeros((n_grid,) * d, dtype=complex)
    for k, c in P.items():
        acc += float(c) * np.exp(1j * sum(k[a] * grids[a] for a in range(d)))
    with np.errstate(divide="ignore"):
        L = np.log(np.abs(acc))
    return float(np.where(np.isfinite(L), L, np.log(1e-300)).sum()) / n_grid**d


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
            GroupRingElement(FreeAbelian(2), {k: TPoly(c) for k, c in order}), 1
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
        det_free_group(GroupRingMatrix.zeros(Free(2), 1, 2), 1)


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
    est = det_free_group(GroupRingMatrix.zeros(Free(2), 1, 1), 1)
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
    assert abs(est.value - oracle.value) <= (est.error_bound or 0) + 1e-12


def test_series_matrix_block_diagonal():
    # block diag of two unitaries: determinant 1, matrix path (no monomial
    # in the off-diagonal slots of one of the two layouts is fine too)
    grp = Free(2)
    a = felt(2, {"x1": {0: 1}})
    b = felt(2, {"x2": {0: 1}})
    zero = GroupRingElement.zero(grp)
    two = GroupRingElement(grp, {FreeWord.identity(2): TPoly.const(2)})
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
    assert abs(est.value - oracle) <= (est.error_bound or 0) + 1e-3


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
    assert abs(s.value - e.value) <= (s.error_bound or 0) + (e.error_bound or 0)


def _minus_one_over_phi():
    """E = Burau(sigma_1^-1) - Id over the total-winding family: -1 - z^-1 at t = 1."""
    bm = reduced_burau(BraidWord(2, (-1,)), TotalWinding())
    return bm.matrix - GroupRingMatrix.identity(bm.matrix.group, 1)


def test_trace_moments_match_closed_form_over_z():
    E = _minus_one_over_phi()
    p = E.entries[0][0].coefficients_at(1)
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


def _random_self_adjoint(rng, m, rank):
    """m x m {word: float} entries with entry (j, i) at w^-1 equal to (i, j) at w."""
    entries = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            for _ in range(rng.randint(1, 3)):
                w = random_word(rng, rank, rng.randint(0, 3))
                c = rng.uniform(-2.0, 2.0)
                entries[i][j][w] = c
                entries[j][i][w.inverse()] = c
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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_half_walk_matches_full_walk(rng, monkeypatch, m):
    monkeypatch.setattr(fkdet, "_PIECE", 5)  # cut long runs here as on full-size balls
    for rank in (1, 2, 3):
        entries = _random_self_adjoint(rng, m, rank)
        for series_len in (13, 20):
            mom = _trace_moments(entries, rank, series_len, 2_000)
            R = mom.radius
            assert R > 2
            nodes = _ball_nodes(rank, R)
            for got, radius in ((mom.taus, R), (mom.taus_small, R - 1)):
                size = fkdet.FreeBall(rank, radius).size
                want = _full_walk(entries, nodes[:size], mom.norm_bound, series_len)
                assert len(got) == series_len
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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
        if A.determinant().coefficients_at(t0) and B.determinant().coefficients_at(t0):
            dA = det_integers(A, t0).value
            dB = det_integers(B, t0).value
            dAB = det_integers(A * B, t0).value
            assert abs(dAB - dA * dB) <= 1e-9 * max(1.0, abs(dA * dB))
            done += 1


def test_block_triangular_over_z(rng):
    t0 = 1
    for _ in range(10):
        A = rand_z_matrix(rng)
        B = rand_z_matrix(rng)
        if not (
            A.determinant().coefficients_at(t0)
            and B.determinant().coefficients_at(t0)
        ):
            continue
        C = rand_z_matrix(rng)
        Z = GroupRingMatrix.zeros(Integers(), 2, 2)
        upper = GroupRingMatrix.block_assemble([[A, C], [Z, B]])
        lower = GroupRingMatrix.block_assemble([[A, Z], [C, B]])
        target = det_integers(A, t0).value * det_integers(B, t0).value
        assert det_integers(upper, t0).value == pytest.approx(target, rel=1e-9)
        assert det_integers(lower, t0).value == pytest.approx(target, rel=1e-9)


def test_adjoint_symmetry(rng):
    t0 = Fraction(4, 3)
    for _ in range(10):
        A = rand_z_matrix(rng)
        if not A.determinant().coefficients_at(t0):
            continue
        assert det_integers(A, t0).value == pytest.approx(
            det_integers(A.adjoint(), t0).value, rel=1e-9
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
            [[GroupRingElement(Integers(), {k: TPoly.const(rng.choice((1, 2, -1)))})]],
        )
        m = GroupRingMatrix.block_assemble([[A, B], [C, D]])
        P = m.determinant().coefficients_at(t0)
        if not P:
            continue
        b = B.entries[0][0]
        binv = GroupRingElement(
            Integers(),
            {
                -next(iter(b.terms)): TPoly.const(
                    1 / next(iter(b.terms.values())).coeffs[0]
                )
            },
        )
        schur = A.entries[0][0] * binv * D.entries[0][0] - C.entries[0][0]
        lhs = det_integers(m, t0).value
        rhs = det_integers(one_by_one(b), t0).value * det_integers(
            one_by_one(schur), t0
        ).value
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        done += 1


def test_dilations_all_backends():
    lam = Fraction(-5, 2)
    for size in (1, 2):
        mz = GroupRingMatrix.identity(Integers(), size).scale(TPoly.const(lam))
        assert det_integers(mz, 1).value == pytest.approx(2.5**size, rel=1e-12)
        ma = GroupRingMatrix.identity(FreeAbelian(2), size).scale(TPoly.const(lam))
        assert det_free_abelian(ma, 1).value == pytest.approx(2.5**size, rel=1e-9)
        mf = GroupRingMatrix.identity(Free(2), size).scale(TPoly.const(lam))
        assert det_free_group(mf, 1).value == pytest.approx(2.5**size, rel=1e-9)
        me = det_epsilon_reg(mz, 1)
        assert me.value == pytest.approx(2.5**size, rel=1e-6)


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


def test_mahler_univariate_constant():
    value, err = mahler_univariate({3: Fraction(-7)})
    assert value == pytest.approx(7.0)


@pytest.mark.parametrize(
    "coeffs, value",
    [
        ({0: 12, 1: -8, 2: -1, 3: 1}, 12.0),  # (z - 2)^2 (z + 3)
        ({0: 1, 1: -2, 2: 3, 3: -2, 4: 1}, 1.0),  # (1 - z + z^2)^2
        ({-2: 1, -1: -2, 0: 3, 1: -2, 2: 1}, 1.0),  # the same, Laurent-shifted
    ],
)
def test_mahler_univariate_repeated_roots(coeffs, value):
    # a double root costs np.roots half its digits; the exact square-free
    # split gets them back
    got, err = mahler_univariate({k: Fraction(c) for k, c in coeffs.items()})
    assert abs(got - value) <= min(err, 1e-12 * value)
