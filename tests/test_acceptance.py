"""Acceptance suite: the exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failure is a hard test failure at the stated tolerance.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import random_knot_braid
from l2burau import torsion
from l2burau.braid import BraidWord, random_braid
from l2burau.epifamilies import (
    AbelianImage,
    Identity,
    TotalWinding,
    check_admissibility,
    twist,
)
from l2burau.fkdet import (
    det_epsilon_reg,
    det_free_abelian,
    det_free_group,
    det_integers,
)
from l2burau.freegroup import Basis, FreeWord, random_word
from l2burau.groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    TPoly,
)
from l2burau.torsion import (
    Conjugate,
    Stabilize,
    alexander_polynomial,
    fq_value,
    generator_matrix,
    markov_report,
    reduced_burau,
    verify_block_triangularization,
)
from test_freegroup import fundamental_formula_check
from test_fkdet import rand_z_matrix

BOYD = 1.3813564445184977  # m(1 + x + y) in closed form (Smyth 1981)
TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)
GOLDEN_SQUARED = (3.0 + math.sqrt(5.0)) / 2.0


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_boyd_quadrature():
    grp = FreeAbelian(2)
    e = GroupRingElement(
        grp,
        {
            (0, 0): TPoly.const(1),
            (1, 0): TPoly.const(1),
            (0, 1): TPoly.const(1),
        },
    )
    start = time.time()
    est = det_free_abelian(GroupRingMatrix(grp, [[e]]), 1)
    elapsed = time.time() - start
    assert est.method == "quadrature"
    assert abs(est.value - BOYD) <= est.error_bound, (est.value, est.error_bound)
    assert elapsed < 10.0, f"quadrature took {elapsed:.1f}s"
    report(1, f"det over Z^2 of (Id+Rx+Ry) at t=1 is {est.value:.6f} "
              f"(target {BOYD:.10f} +- {est.error_bound:.1e}) in {elapsed:.2f}s")


def test_criterion_2_abelianization_counterexample():
    base = BraidWord(2, (-1,))
    stabilized = BraidWord(3, (-1, 2))
    v1 = fq_value(base, AbelianImage(), 1)
    v2 = fq_value(stabilized, AbelianImage(), 1)
    assert v1.value == 1.0, "base value must be exact"
    assert v1.estimate.method == "roots"
    assert abs(v2.value - BOYD) <= v2.error_bound
    rep = markov_report(base, [Stabilize(1, after=True)], AbelianImage(), 1)
    assert rep.verdict == "violation"
    report(2, f"abelianization family: F={v1.value:.6f} vs F={v2.value:.6f}, "
              "Markov report flags VIOLATION")


def test_criterion_3_identity_counterexample():
    start = time.time()
    v = fq_value(BraidWord(3, (-1, 2)), Identity(), 1, series_len=30, accel=True)
    elapsed = time.time() - start
    assert abs(v.value - TWO_OVER_SQRT3) < 2e-2, v.value
    assert v.estimate.diagnostics["series_len"] <= 30
    assert elapsed < 60.0, f"trace series took {elapsed:.1f}s"
    # cross-check with the epsilon-regularization backend
    bm = reduced_burau(BraidWord(3, (-1, 2)), Identity())
    E = bm.matrix - GroupRingMatrix.identity(bm.matrix.group, 2)
    eps = det_epsilon_reg(E, 1)
    combined = (v.estimate.error_bound or 0.0) + (eps.error_bound or 0.0)
    assert abs(v.estimate.value - eps.value) <= combined
    report(3, f"identity family: F={v.value:.6f} (target 2/sqrt(3)=1.154701 "
              f"+- 2e-2) in {elapsed:.1f}s; eps backend {eps.value:.6f} agrees "
              f"within {combined:.3f}")


def test_criterion_4_generator_determinants():
    worst = 0.0
    for n in range(2, 6):
        for i in range(1, n):
            for sign in (1, -1):
                E = generator_matrix(n, i, sign, TotalWinding()).matrix
                for t0 in (Fraction(1, 2), Fraction(1), Fraction(2)):
                    est = det_integers(E, t0)
                    target = float(t0**sign)
                    worst = max(worst, abs(est.value - target))
    assert worst < 1e-9, worst
    report(4, f"all generator-matrix determinants equal t^(+-1) within "
              f"{worst:.2e} (n <= 5, t in {{1/2, 1, 2}})")


def test_criterion_5_markov_invariance_total_winding():
    rng = random.Random(5058)
    checked = 0
    worst = 0.0
    while checked < 20:
        n = rng.randint(2, 4)
        beta = random_knot_braid(rng, n, 8)
        moves = []
        strands = n
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                moves.append(Conjugate(random_braid(rng, strands, rng.randint(1, 4))))
            else:
                moves.append(Stabilize(rng.choice((1, -1))))
                strands += 1
        for t0 in (Fraction(1), Fraction(1, 2), Fraction(2)):
            rep = markov_report(beta, moves, TotalWinding(), t0, tolerance=1e-6)
            assert rep.verdict == "invariant", (beta, moves, t0, rep.max_deviation)
            assert rep.max_deviation < 1e-6
            worst = max(worst, rep.max_deviation)
        checked += 1
    report(5, f"20 random knot-closure braids x move sequences: F_phi constant "
              f"within {worst:.2e} at t in {{1/2, 1, 2}} (monomial-fitted away from 1)")


def test_criterion_6_burau_alexander_pipeline():
    trefoil = BraidWord(2, (1, 1, 1))
    fig8 = BraidWord(3, (1, -2, 1, -2))
    p1 = alexander_polynomial(trefoil)
    p2 = alexander_polynomial(fig8)
    assert p1 == {2: Fraction(1), 1: Fraction(-1), 0: Fraction(1)}
    assert p2 == {2: Fraction(1), 1: Fraction(-3), 0: Fraction(1)}
    f_tre = fq_value(trefoil, TotalWinding(), 1).value
    f_fig8 = fq_value(fig8, TotalWinding(), 1).value
    assert abs(f_tre - 1.0) < 1e-6
    assert abs(f_fig8 - GOLDEN_SQUARED) < 1e-6
    report(6, f"Alexander polynomials exact; F_phi(fig-8)(1)={f_fig8:.6f} "
              f"(target {GOLDEN_SQUARED:.6f}), F_phi(trefoil)(1)={f_tre:.6f}")


def test_criterion_7_property_suites():
    rng = random.Random(77)

    # fundamental formula of Fox calculus on 1000 random words
    for _ in range(1000):
        n = rng.randint(1, 5)
        u = random_word(rng, n, rng.randint(1, 40))
        assert fundamental_formula_check(u)

    # determinant properties on randomized commutative instances
    t0 = Fraction(3, 2)
    done = 0
    while done < 10:  # (1) multiplicativity
        A, B = rand_z_matrix(rng), rand_z_matrix(rng)
        if not (
            A.determinant().coefficients_at(t0)
            and B.determinant().coefficients_at(t0)
        ):
            continue
        dA, dB = det_integers(A, t0).value, det_integers(B, t0).value
        dAB = det_integers(A * B, t0).value
        assert abs(dAB - dA * dB) <= 1e-9 * max(1.0, abs(dA * dB))
        done += 1
    done = 0
    while done < 10:  # (2) block triangular
        A, B, C = rand_z_matrix(rng), rand_z_matrix(rng), rand_z_matrix(rng)
        if not (
            A.determinant().coefficients_at(t0)
            and B.determinant().coefficients_at(t0)
        ):
            continue
        Z = GroupRingMatrix.zeros(Integers(), 2, 2)
        tri = GroupRingMatrix.block_assemble([[A, C], [Z, B]])
        assert det_integers(tri, t0).value == pytest.approx(
            det_integers(A, t0).value * det_integers(B, t0).value, rel=1e-9
        )
        done += 1
    for _ in range(5):  # (3) induction from <x1> inside F3
        coeffs = {
            rng.randint(-2, 2): TPoly.const(Fraction(rng.randint(1, 3), rng.randint(3, 5)))
            for _ in range(2)
        }
        coeffs[0] = TPoly.const(1)
        over_z = GroupRingMatrix(
            Integers(), [[GroupRingElement(Integers(), coeffs)]]
        )
        over_f = GroupRingMatrix(
            Free(3),
            [[GroupRingElement(
                Free(3),
                {FreeWord(3, ((1, k),) if k else ()): tp for k, tp in coeffs.items()},
            )]],
        )
        oracle = det_integers(over_z, 1)
        series = det_free_group(over_f, 1, series_len=40)
        assert abs(series.value - oracle.value) <= (series.error_bound or 0) + 1e-4
    done = 0
    while done < 8:  # (6) the 2x2 trick with a monomial block
        A, C, D = (rand_z_matrix(rng, size=1) for _ in range(3))
        k = rng.randint(-2, 2)
        B = GroupRingMatrix(
            Integers(),
            [[GroupRingElement(Integers(), {k: TPoly.const(rng.choice((1, -2)))})]],
        )
        m = GroupRingMatrix.block_assemble([[A, B], [C, D]])
        if not m.determinant().coefficients_at(t0):
            continue
        b = B.entries[0][0]
        ((bk, btp),) = b.terms.items()
        binv = GroupRingElement(Integers(), {-bk: TPoly.const(1 / btp.coeffs[0])})
        schur = A.entries[0][0] * binv * D.entries[0][0] - C.entries[0][0]
        lhs = det_integers(m, t0).value
        rhs = (
            det_integers(GroupRingMatrix(Integers(), [[b]]), t0).value
            * det_integers(GroupRingMatrix(Integers(), [[schur]]), t0).value
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        done += 1
    for _ in range(5):  # (8) adjoint symmetry
        A = rand_z_matrix(rng)
        assert det_integers(A, t0).value == pytest.approx(
            det_integers(A.adjoint(), t0).value, rel=1e-9
        )
    for lam, size in ((Fraction(-3), 1), (Fraction(5, 2), 3)):  # (9) dilations
        m = GroupRingMatrix.identity(Integers(), size).scale(TPoly.const(lam))
        assert det_integers(m, 1).value == pytest.approx(
            float(abs(lam)) ** size, rel=1e-11
        )

    # anti-multiplicativity of the Burau assignment, 150 symbolic pairs
    pairs = 0
    for n in (2, 3, 4):
        for _ in range(50):
            a = random_braid(rng, n, 5)
            b = random_braid(rng, n, 5)
            lhs = torsion._jacobian_matrix(compose_braids(a, b), Identity(), Basis.G, n - 1)
            rhs = reduced_burau(a, Identity()).matrix.opposite_mul(
                reduced_burau(b, twist(Identity(), a)).matrix
            )
            assert lhs == rhs
            pairs += 1
    assert pairs == 150

    # stabilization block-triangularization on 100 random cases
    cases = 0
    while cases < 100:
        n = rng.randint(2, 4)
        beta = random_braid(rng, n, rng.randint(0, 6))
        sign = rng.choice((1, -1))
        assert verify_block_triangularization(beta, sign).passed
        cases += 1

    # admissibility across the three families, 300 random cases
    cases = 0
    fams = (Identity(), TotalWinding(), AbelianImage())
    while cases < 300:
        fam = fams[cases % 3]
        n = rng.randint(2, 4)
        beta = random_braid(rng, n, 6)
        alpha = random_braid(rng, n, 6)
        assert check_admissibility(fam, beta, alpha).passed
        cases += 1

    report(7, "property suites pass: Fox formula x1000, determinant laws, "
              "anti-multiplicativity x150, block triangularization x100, "
              "admissibility x300")


def compose_braids(a, b):
    from l2burau.braid import compose

    return compose(a, b)
