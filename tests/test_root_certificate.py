"""The roots backend's certificate: Smith's inclusion disks about the
float roots, escalated to fixed-point Aberth steps where they fail, checked
against the Durand-Kerner oracle of ``oracles.fixed_point_roots`` and
against closed forms."""

from __future__ import annotations

import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_braid
from l2burau import fkdet
from l2burau.braid import BraidWord
from l2burau.epifamilies import TotalWinding
from l2burau.groupring import _ascending, _cyclic_quotient
from l2burau.torsion import _symbolic_det, fq_value
from oracles import fixed_point_roots, oracle_mahler

TS = (Fraction(1, 2), Fraction(1), Fraction(2))
# (s - 1)(s - 2) ... (s - 8), whose roots the floats resolve badly: np.roots
# loses about 8 digits on it
WILKINSON_8 = dict(enumerate([40320, -109584, 118124, -67284, 22449, -4536, 546, -36, 1]))


def _winding_poly(beta: BraidWord) -> dict[int, int]:
    """Q(s) with det(Burau - Id) = Q(z t) under phi, as {exponent: int}."""
    return {g: int(c) for (g, _), c in _symbolic_det(beta, TotalWinding()).items()}


def _check_disks(coeffs: dict) -> fkdet.UnivariateRoots:
    """Solve ``coeffs`` and check Smith's count on every part, exactly:
    each connected union of disks holds as many true roots as it has disks
    (one each where they are apart), and no true root lies outside them."""
    solve = fkdet.UnivariateRoots(coeffs)
    p = _ascending({k: Fraction(c) for k, c in coeffs.items() if c})
    split = [(p, 1)] if solve.multiplicities is None else fkdet._squarefree_parts(p)
    assert len(split) == len(solve.parts)
    for (f, _), (_, roots, _, _, disks) in zip(split, solve.parts):
        if disks is None:
            continue
        centers = [(Fraction(z.real), Fraction(z.imag)) for z in roots.tolist()]
        radii = [Fraction(r) for r in disks[0]]
        union = list(range(len(centers)))  # the least disk each one is joined to

        def find(i):
            while union[i] != i:
                i = union[i]
            return i

        for i, (x, y) in enumerate(centers):
            for j, (u, v) in enumerate(centers[:i]):
                if (x - u) ** 2 + (y - v) ** 2 <= (radii[i] + radii[j]) ** 2:
                    union[max(find(i), find(j))] = min(find(i), find(j))
        size: dict[int, int] = {}
        for i in range(len(centers)):
            size[find(i)] = size.get(find(i), 0) + 1
        held: dict[int, int] = {}
        for x, y in fixed_point_roots(f):
            inside = [
                i for i, ((u, v), r) in enumerate(zip(centers, radii)) if (x - u) ** 2 + (y - v) ** 2 <= r * r
            ]
            assert inside, coeffs  # no true root outside the disks
            held[find(inside[0])] = held.get(find(inside[0]), 0) + 1
        assert held == size, coeffs
    return solve


def test_fixed_point_roots_meet_closed_forms():
    with localcontext() as ctx:
        ctx.prec = 80
        phi2 = (3 + Decimal(5).sqrt()) / 2
        roots = sorted(fixed_point_roots([1, -3, 1]))
        for (x, y), want in zip(roots, (1 / phi2, phi2)):
            assert y == 0 or abs(y) < Fraction(1, 2**200)
            assert abs(Decimal(x.numerator) / x.denominator - want) < Decimal(10) ** -60
    roots = sorted(fixed_point_roots([Fraction(1, 4), 0, 1]), key=lambda r: r[1])
    for (x, y), want in zip(roots, (Fraction(-1, 2), Fraction(1, 2))):
        assert abs(x) + abs(y - want) < Fraction(1, 2**200)


@pytest.mark.parametrize(
    "coeffs",
    [
        {0: 1, 1: -1, 2: 1},
        {-1: -1, 0: 3, 1: -1},
        {0: 1, 1: -3, 2: 3, 3: -3, 4: 1},
        dict(enumerate([1, -1, 1, -1, 1, -1, 1])),
        dict(enumerate([3, 0, -7, 2, 0, 0, 5, -1])),
        WILKINSON_8,
        # (s^2 - 2)^2 (s + 3): a double part and a simple one
        dict(enumerate([12, 4, -4, 0, 3, 1])),
    ],
)
def test_smith_disks_hold_the_true_roots(coeffs):
    _check_disks(coeffs)


def _polyval_newton(poly: np.ndarray) -> np.ndarray:
    """The float roots as np.roots and two Newton steps by np.polyval."""
    roots, dpoly = np.roots(poly), np.polyder(poly)
    for _ in range(2):
        vals, dvals = np.polyval(poly, roots), np.polyval(dpoly, roots)
        ok = np.abs(dvals) > 1e-30
        roots[ok] = roots[ok] - vals[ok] / dvals[ok]
    return roots


def test_float_roots_are_np_polyvals_newton_steps_bit_for_bit():
    # the fused Horner pass that also feeds the disks takes np.polyval's
    # steps, so a part the float pass certifies keeps its roots and value
    rng = random.Random(3)
    seen = 0
    for _ in range(300):
        coeffs = {k: rng.randint(-9, 9) for k in range(rng.randint(1, 30))}
        if not any(coeffs.values()):
            continue
        solve = fkdet.UnivariateRoots(coeffs)
        for poly, roots, _, _, disks in solve.parts:
            if roots is not None and (disks is None or disks[3] <= fkdet._CERTIFIED):
                want = _polyval_newton(poly)
                assert roots.dtype == want.dtype and roots.tobytes() == want.tobytes(), coeffs
                seen += 1
    assert seen > 200


def _twin(e: int, extra: list[int]) -> dict[int, int]:
    """(e s - e)(e s - e - 1) times ``extra`` (ascending): roots 1 and
    1 + 1/e."""
    out = [0] * (len(extra) + 2)
    for k, c in enumerate(extra):
        for j, q in enumerate((e * e + e, -2 * e * e - e, e * e)):
            out[k + j] += c * q
    return dict(enumerate(out))


@pytest.mark.parametrize(
    "coeffs",
    # the float starts of twins 1e-9 apart lie near one root, where Newton's
    # method would merge them; twins 1e-15 apart are closer than floats
    # near 1 can tell, so their disks meet and their annulus bounds them
    [WILKINSON_8, _twin(10**9, [1]), _twin(10**15, [1, 1, 1])],
    ids=["wilkinson-8", "twin-1e-9", "twin-1e-15"],
)
def test_a_part_the_floats_cannot_certify_escalates(coeffs):
    solve = _check_disks(coeffs)
    assert solve.bits > 53
    for t in TS:
        value, err = solve.at(t)
        assert abs(Decimal(value) - oracle_mahler(coeffs, t)) <= Decimal(err)
        assert err <= 1e-12 * value


def _closed(lead: int, lo: int, moduli, t: Fraction) -> Decimal:
    """F(t) = M(Delta(t .)) / max(1, t) for a knot on n strands whose
    determinant divides out 1 + s + ... + s^(n-1): |lead| t^lo prod
    max(t, |r|) over the root moduli of Delta, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        dt = Decimal(t.numerator) / t.denominator
        value = abs(Decimal(lead)) * dt**lo
        for r in moduli:
            value *= max(dt, r)
        return +(value / max(Decimal(1), dt))


def _knot_moduli(name: str) -> list[Decimal]:
    with localcontext() as ctx:
        ctx.prec = 60
        if name == "4_1":  # -s^-2 + 3 s^-1 - 1: roots phi^2 and phi^-2
            phi2 = (3 + Decimal(5).sqrt()) / 2
            return [phi2, 1 / phi2]
        if name == "6_2":  # u = s + 1/s solves u^2 - 3u + 1 = 0; |u| < 2 is on the circle
            u = (3 + Decimal(5).sqrt()) / 2
            r = (u + (u * u - 4).sqrt()) / 2
            return [r, 1 / r, Decimal(1), Decimal(1)]
        return [Decimal(1)] * {"3_1": 2, "7_1": 6}[name]


# name: (braid, lead and lowest exponent of the divided-out Delta)
KNOTS = {
    "3_1": (BraidWord(2, (1, 1, 1)), 1, 0),
    "4_1": (BraidWord(3, (1, -2, 1, -2)), 1, -2),
    "6_2": (BraidWord(3, (1, 1, 1, -2, 1, -2)), 1, -2),
    "7_1": (BraidWord(2, (1,) * 7), 1, 0),
}


@pytest.mark.parametrize("t0", TS)
@pytest.mark.parametrize("name", sorted(KNOTS))
def test_table_knots_are_certified_by_the_float_pass(name, t0):
    beta, lead, lo = KNOTS[name]
    v = fq_value(beta, TotalWinding(), t0)
    want = _closed(lead, lo, _knot_moduli(name), t0)
    assert v.estimate.diagnostics["root_bits"] == 53
    assert v.error_bound <= 1e-13 * v.value
    assert abs(Decimal(v.value) - want) <= Decimal(v.error_bound)


def test_twelve_strand_link_is_certified_after_escalation():
    # the float disks of this link's Delta overlap (a relative radius near
    # 0.7), and the a-priori bound the backend used before read 401332.927
    # +- 0.0125; the 64-bit fixed-point steps certify it within its bound
    beta = random_braid(random.Random(16), 12, 200)
    start = time.perf_counter()
    v = fq_value(beta, TotalWinding(), 1)
    assert time.perf_counter() - start < 5  # under 1 s on a desktop core
    assert v.estimate.diagnostics["root_bits"] > 53
    assert abs(v.value - 401329.40447682) <= v.error_bound + 1e-8
    assert v.error_bound <= 1e-12 * v.value
    assert abs(Decimal(v.value) - oracle_mahler(_winding_poly(beta))) <= Decimal(v.error_bound)


def test_seeded_sweep_stays_within_its_bounds():
    # random phi braids of 4-10 strands and 20-120 letters: every value at
    # every t is within its bound of the oracle's, every disk holds a true
    # root, and both the float pass and the escalation run
    rng = random.Random(2024)
    bits = set()
    for _ in range(60):
        beta = random_braid(rng, rng.randint(4, 10), rng.randint(20, 120))
        Q = _winding_poly(beta)
        if not Q:
            continue
        n = beta.strands
        for t0 in TS:
            v = fq_value(beta, TotalWinding(), t0)
            norm = max(Decimal(1), Decimal(t0.numerator) / t0.denominator) ** n
            want = oracle_mahler(Q, t0) / norm
            assert abs(Decimal(v.value) - want) <= Decimal(v.error_bound), (beta, t0)
        lo, hi = min(Q), max(Q)
        q = tuple(Q.get(k, 0) for k in range(lo, hi + 1))
        solve, m = fkdet._winding_roots(lo, q)
        _check_disks({lo + k: c for k, c in enumerate(_cyclic_quotient(q, m))})
        bits.add(solve.bits)
    assert 53 in bits and max(bits) > 53


def test_oracle_agrees_with_mpmath():
    # a local cross-check of the oracle itself; CI installs no mpmath
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    cases = ({0: 1, 1: -3, 2: 3, 3: -3, 4: 1}, {k: rng.randint(-9, 9) for k in range(25)} | {25: 1})
    for coeffs in cases:
        with mpmath.workdps(60):
            descending = [coeffs.get(k, 0) for k in range(max(coeffs), -1, -1)]
            roots = mpmath.polyroots(descending, maxsteps=400, extraprec=400)
            want = abs(coeffs[max(coeffs)]) * mpmath.fprod(max(1, abs(r)) for r in roots)
            assert abs(mpmath.mpf(str(oracle_mahler(coeffs))) - want) < mpmath.mpf(10) ** -35 * want
