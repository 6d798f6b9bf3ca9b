"""Fuglede-Kadison determinant estimation over the computable groups.

Three backends, one per coefficient group, plus epsilon regularization.
Each is a ``<backend>_estimate`` on flat data, exact in t: roots and
quadrature read the determinant D = {(group element, t exponent):
coefficient} that ``groupring._laplace`` returns, series and eps the
square matrix E as rows of such dicts.  So a caller evaluating one
matrix at several t builds its input once (``torsion.fq_value`` does).
Each ``det_*`` flattens a ``GroupRingMatrix`` once and calls its estimate,
with the same checks and messages.  This is the only module that imports
numpy, and the rest of the package loads it only on the first call that
reaches a backend (the dispatch of ``torsion.fq_value``).

* ``roots_estimate`` (``det_integers``) - the Mahler measure of the
  one-variable determinant from its roots, each certified by its Smith
  inclusion disk, with fixed-point Aberth-Newton steps where the float
  roots do not certify (P is proved square-free modulo a prime or split exactly
  first).  Under phi det is one polynomial Q(s), s = z t: 1 + s + ... +
  s^(m-1) is divided out exactly and one cached solve of the quotient
  serves every t.
* ``quadrature_estimate`` (``det_free_abelian``) - the Mahler measure as
  a midpoint tensor quadrature of log|P| on the torus, with grid
  doublings supplying the error bound.  P is evaluated from its dense
  coefficient box and one phase table per axis, on the half of the grid
  that conjugate symmetry leaves, in fixed-size blocks.  Supports
  touching at most one coordinate fall back to the exact root method.
  When the point budget coarsens the grid and a coordinate has span 1,
  P = x^lo (A + B x), that coordinate is integrated exactly by Jensen's
  formula, log max(|A|, |B|), and the other axes run one doubling finer.
* ``series_estimate`` (``det_free_group``) - a von Neumann trace series
  for log det.  Traces tr((Id - B/c)^k) are computed by propagating a
  vector over a radius-truncated ball of a free group (numbered in suffix
  order, so a word acts on it as a few arithmetic runs; on its support
  only while that is sparse, then scaled so that most runs are a plain
  add), after rewriting
  the support over a free basis of the subgroup it generates.  The slowly
  decaying tail is completed by a fitted power-law or geometric model.
  A single entry whose subgroup has rank 1 is a Laurent polynomial and
  goes to the exact root method instead.
* ``epsilon_estimate`` (``det_epsilon_reg``) - determinants of A*A + eps
  Id for a decreasing eps sequence, extrapolated to eps -> 0.  Every
  shifted series is derived from the moments of one walk, so it checks
  the tail model and the eps extrapolation, not the walk itself.

Every backend computes the regular determinant flavor: zero on detected
non-injective operators.

Matrices here follow the convention of :mod:`l2burau.torsion`: the array
is the operator matrix itself, so operator composition reverses entry
products.  Concretely that means the positive operator attached to a
matrix M has entries  sum_j M[j][k] adj(M[j][i]),  and the monomial Schur
reduction of a 2x2 matrix reads det(B) det(A B^-1 D - C).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from fractions import Fraction
from math import exp, expm1, frexp, fsum, gcd, hypot, isqrt, lcm, log, sqrt
from typing import Sequence

import numpy as np

from .freegroup import FreeWord, word as make_word
from .groupring import (
    Free,
    FreeAbelian,
    GroupRingMatrix,
    Integers,
    _ascending,
    _at,
    _check_grid,
    _check_series_len,
    _cyclic_quotient,
    _flat,
    _flat_add,
    _flat_addmul,
    _laplace,
    _line_steps,
    _require_positive,
)


@dataclasses.dataclass
class FKEstimate:
    """A determinant estimate with provenance and convergence diagnostics."""

    value: float
    error_bound: float
    method: str
    diagnostics: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        # a bound not below the value cannot tell it from zero; callers
        # scale value and bound together, which keeps the flag true
        if self.error_bound and self.error_bound >= abs(self.value):
            self.diagnostics["bound_vacuous"] = True


def _flat_rows(M: GroupRingMatrix) -> list[list[dict]]:
    """The rows of a square matrix as flat entries (``groupring._flat``)."""
    if M.rows != M.cols:
        raise ValueError(f"determinant needs a square matrix, got {M.shape}")
    return [[_flat(e) for e in row] for row in M.entries]


# --- roots backend (integers) -----------------------------------------------


def _trimmed(p: list) -> list:
    """``p`` without its zero top coefficients; the zero polynomial is []."""
    while p and not p[-1]:
        p = p[:-1]
    return p


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _primitive(p: list[int]) -> list[int]:
    """p over the gcd of its coefficients, top coefficient positive."""
    if not p:
        return p
    g = gcd(*p) * (1 if p[-1] > 0 else -1)
    return [c // g for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of c a by b over Z, for some nonzero integer c."""
    r, lead, n = list(a), b[-1], len(b)
    while len(r) >= n:
        g = gcd(r[-1], lead)
        f, s, k = r[-1] // g, lead // g, len(r) - n
        r = [s * c for c in r]
        for j, c in enumerate(b):
            r[k + j] -= f * c
        r = _trimmed(r)
    return r


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd over Q of integer polynomials, as a primitive one with positive
    top coefficient, by a primitive pseudo-remainder sequence: each
    remainder is cut to its primitive part, which keeps the integers
    small where Euclid over Fractions swells with the degree."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den for integer polynomials with den primitive and dividing
    num over Q; the quotient is integral by Gauss's lemma."""
    rem = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(den) - 1] // den[-1]
        if q[k]:
            for j, dc in enumerate(den):
                rem[k + j] -= q[k] * dc
    return q


def _squarefree_parts(p: list) -> list[tuple[list, int]]:
    """Yun's algorithm: p = lead(p) * prod f_i^i, as [(f_i, i)].

    The f_i are monic Fractions, square-free and pairwise coprime;
    constant parts are left out.  p is rational; the gcds run over Z on
    its primitive multiple, and every division is exact.
    """
    scale = lcm(*(Fraction(c).denominator for c in p))
    p = _primitive([int(c * scale) for c in p])
    dp = _derivative(p)
    a = _primitive_gcd(p, dp)
    b, c = _exact_quotient(p, a), _exact_quotient(dp, a)
    parts, mult = [], 1
    while len(b) > 1:
        d = _trimmed([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _primitive_gcd(b, d)
        if len(a) > 1:
            parts.append(([Fraction(x, a[-1]) for x in a], mult))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        mult += 1
    return parts


def _squarefree_mod_p(p: list[int]) -> bool:
    """True when gcd(p, p') mod the prime q = 2^61 - 1 is constant, which
    proves p square-free over Q: a repeated factor keeps its degree mod q
    when q does not divide lead(p).  False only means "not proved"."""
    q = 2**61 - 1
    if p[-1] % q == 0:
        return False
    a = [c % q for c in p]
    b = _trimmed([k * c % q for k, c in enumerate(p)][1:])
    while b:
        inv = pow(b[-1], -1, q)
        for k in range(len(a) - len(b), -1, -1):
            f = a[k + len(b) - 1] * inv % q
            if f:
                for j, c in enumerate(b):
                    a[k + j] = (a[k + j] - f * c) % q
        a, b = b, _trimmed(a[: len(b) - 1])
    return len(a) == 1


_ULP = 1.2e-16  # one rounding, 2^-53, with room for second-order terms
_WIDEN = 1 + 2.0**-30  # covers the roundings in computing a radius, fewer than 2^20
_CERTIFIED = 1e-12  # the relative bound at which a solve stops refining
_FIXED_BITS = (64, 128, 256, 512)  # the fixed-point precisions, tried in order


def _smith_disks(az: np.ndarray, num: np.ndarray, diff: np.ndarray, lead, extra):
    """Smith's inclusion disks (B. T. Smith, J. ACM 17, 1970) about the
    approximations z_i of the n roots of a polynomial P with leading
    coefficient ``lead``: the disk of radius

        rho_i = n |P(z_i)| / |lead prod_{j != i} (z_i - z_j)|

    about z_i, where a union of k disks that meets no other holds exactly k
    roots.  ``num`` is an upper bound on |P(z_i)| to a rounding and
    ``diff`` the matrix |z_i - z_j| to 4 roundings (it is overwritten,
    shrunk by them); rho is widened by _WIDEN for the roundings here.  The
    disks returned are about points w_i within ``extra`` of z_i (the roots
    the caller keeps), so their radii add it, and ``az`` is |w_i| to a
    rounding.

    Returns (rho, spread, floor, worst) as lists and a float: the root r_i
    paired with w_i has | |r_i| - |w_i| | <= spread_i and min(|r_i|, |w_i|)
    >= floor_i, so log max(t, |r_i|) is within spread_i / max(t, floor_i)
    of log max(t, |w_i|), and worst = sum spread_i / floor_i bounds the sum
    at every t > 0 (inf unless every floor is positive).  When 2 sum rho <
    min(1, |z_i - z_j|) every disk is apart from every other and spread_i =
    rho_i; otherwise the disks of each connected union share its annulus
    [lo, hi], with spread hi - lo and floor lo.
    """
    n, c = len(az), _WIDEN / abs(float(lead))
    diff *= 1 - 4 * _ULP
    diag = diff.reshape(-1)[:: n + 1]  # a view
    diag[:] = 1.0
    with np.errstate(all="ignore"):  # a zero or overflowing product reads as rho = inf
        rho = n * c * num / diff.prod(axis=1) + extra
        # (the reductions run on lists: numpy's cost more than the arithmetic)
        if 2 * sum(rho.tolist()) < min(diff.reshape(-1).tolist()):  # nan fails
            # then every disk is apart from every other and holds one root
            # r_j, |z_i - r_j| >= |z_i - z_j| - rho_j, and |P(z_i)| = |lead|
            # prod_j |z_i - r_j| bounds |z_i - r_i| by about rho_i / n (the
            # diagonal's 1 - rho_i < 1 only widens it)
            rho = np.minimum(rho, c * num / (diff - rho).prod(axis=1) + extra)
            spread, floor = rho, az * (1 - 4 * _ULP) - rho
        else:
            diag[:] = 0.0
            apart = diff > rho[:, None] + rho  # False on the diagonal, and for a nan
            rho[np.isnan(rho)] = np.inf
            lab = np.arange(n)  # the least index in each connected union
            while True:
                new = np.where(apart, n, lab).min(axis=1)
                if (new == lab).all():
                    break
                lab = new
            lo, hi = np.full(n, np.inf), np.zeros(n)
            np.minimum.at(lo, lab, az * (1 - 4 * _ULP) - rho)
            np.maximum.at(hi, lab, az * (1 + 4 * _ULP) + rho)
            lo, hi = lo[lab], hi[lab]
            spread, floor = hi - lo + 4 * _ULP * hi, lo
    spread, floor = spread.tolist(), floor.tolist()
    worst = sum(map(operator.truediv, spread, floor)) if min(floor) > 0 else np.inf
    return rho.tolist(), spread, floor, worst


def _float_disks(lead: float, z: np.ndarray, val: np.ndarray, new: np.ndarray):
    """Smith's disks about the float roots ``new`` of an exact polynomial P
    whose float rounding has leading coefficient ``lead``, from the disks
    about the points z one Newton step before: each of those holds a root,
    and so does the disk about new_i wider by |new_i - z_i|.  ``val`` is
    the float P(z_i), P'(z_i) and sum |c_k| |z_i|^k by Horner's rule, end
    to end; the first is within 4 deg + 1 roundings of the last of the
    exact P(z_i): per step 2 sqrt(2) for the complex product (Higham,
    Accuracy and Stability, lemma 3.5) and 1 for the sum, and 1 for the
    coefficients as floats."""
    n = len(z)
    num = np.abs(val[:n]) + (4 * n + 1) * _ULP * val[2 * n :].real
    step = np.abs(new - z) * (1 + 4 * _ULP)  # to 2 roundings, and 1 for adding it
    return _smith_disks(np.abs(new), num, np.abs(z[:, None] - z), lead, step)


def _horner_fixed(a: list[int], x: int, y: int, bits: int) -> tuple[int, int, int, int]:
    """P and P' at z = (x + i y) 2^-bits for ascending integer coefficients
    a, as 2^bits-scaled Gaussian integers (re P, im P, re P', im P').  Each
    step truncates, so re and im of P are each within sqrt(2) sum_{j<n} |z|^j
    units of the exact value."""
    pr = pi = dr = di = 0
    for c in reversed(a):
        dr, di = ((dr * x - di * y) >> bits) + pr, ((dr * y + di * x) >> bits) + pi
        pr, pi = ((pr * x - pi * y) >> bits) + (c << bits), (pr * y + pi * x) >> bits
    return pr, pi, dr, di


def _fixed_disks(f: list, start: np.ndarray):
    """Aberth's iteration on f (ascending rationals) in fixed-point Python
    ints from the float roots ``start``, at 64 bits and then doubled until
    its Smith disks certify or _FIXED_BITS runs out: (roots as complex
    floats, disks about them, bits).  Rounding widens every radius: |P| is
    bounded above from the truncation error of :func:`_horner_fixed`, and
    the rounding of each root to a float is added to its disk."""
    scale = lcm(*(Fraction(c).denominator for c in f))
    a = [int(c * scale) for c in f]
    n = len(a) - 1
    start = np.where(np.isfinite(start), start, 0.0)
    roots = [(int(z.real * 2.0**64), int(z.imag * 2.0**64)) for z in start]
    prev = 64
    for bits in _FIXED_BITS:
        roots = [(x << (bits - prev), y << (bits - prev)) for x, y in roots]
        prev, unit, done = bits, 2**bits, 1 << (bits // 2 - 4)
        for _ in range(16):  # cubic once close: a sweep of steps below 2^(-bits/2) is the last
            moved = 0
            for i, (x, y) in enumerate(roots):
                pr, pi, dr, di = _horner_fixed(a, x, y, bits)
                # P' - P sum_{j != i} 1 / (z - z_j): Newton's step on P /
                # prod_{j != i} (z - z_j), which keeps two approximations
                # off one root (Aberth)
                sr = si = 0
                for u, v in roots:
                    ex, ey = x - u, y - v
                    e2 = ex * ex + ey * ey
                    if e2:
                        sr, si = sr + (ex << 2 * bits) // e2, si - (ey << 2 * bits) // e2
                dr, di = dr - ((pr * sr - pi * si) >> bits), di - ((pr * si + pi * sr) >> bits)
                den = dr * dr + di * di
                if den:
                    sx, sy = ((pr * dr + pi * di) << bits) // den, ((pi * dr - pr * di) << bits) // den
                    roots[i] = x - sx, y - sy
                    moved = max(moved, abs(sx) + abs(sy))
            if moved < done:
                break
        num = []
        for x, y in roots:
            pr, pi, _, _ = _horner_fixed(a, x, y, bits)
            # sqrt(2) n R^(n-1) units, R >= max(1, |z|) on 16 fractional bits
            r16 = max((isqrt(x * x + y * y) >> (bits - 16)) + 1, 1 << 16)
            trunc = -(-3 * n * r16 ** (n - 1) >> (16 * n - 15))
            num.append((isqrt(pr * pr + pi * pi) + 2 + trunc) / unit)
        z = np.array([complex(x / unit, y / unit) for x, y in roots])
        diff = np.array([[hypot((x - u) / unit, (y - v) / unit) for u, v in roots] for x, y in roots])
        az = np.abs(z)
        disks = _smith_disks(az, np.array(num), diff, a[-1], 2 * _ULP * az)
        if disks[3] <= _CERTIFIED:
            break
    return z, disks, bits


class UnivariateRoots:
    """The roots of a Laurent polynomial P, found once, and its Mahler
    measure M(P(t .)) = |lead| t^hi prod max(1, |r| / t) at every t > 0.

    An m-fold root costs the root finder all but 1/m of its digits, so P
    is proved square-free (:func:`_squarefree_mod_p`) or else split exactly
    as lead z^lo prod f_i^i (:func:`_squarefree_parts`, ``multiplicities``
    the i).  Each part of degree 2 or more gets ``np.roots``, two Newton
    steps and Smith's inclusion disks about them (:func:`_float_disks`).
    Disks that meet share the annulus of their union, which bounds the
    moduli of the roots they hold.  When the disks leave more than
    _CERTIFIED of relative error at some t, Aberth's iteration (Newton's
    method with the other roots divided out, so no two approximations
    settle on one root) reruns from the same start in fixed-point ints at
    64, 128, 256 and 512 bits until they certify (:func:`_fixed_disks`);
    ``bits`` is 53 when no part needed it, else the largest precision
    used.  Past 512 bits the disks are kept as they are.  A
    part of degree 0 or 1, whose root is one quotient, gets the rounding
    bound 1e-15.  A binomial part c0 + ck X^k, whose k roots all have
    modulus |c0 / ck|^(1/k), is measured as max(|c0|, |ck| t^k) with no
    roots, and gets the rounding bound (k + 4) 1.2e-16.  Each bound counts
    i times for a part f_i^i.  ``parts`` keeps (descending coefficients,
    roots, their moduli, i, disks) per part, roots None for a binomial and
    disks (radii, spread, floor, worst) of :func:`_smith_disks`, or None
    below degree 2."""

    def __init__(self, coeffs: dict[int, Fraction | int]):
        coeffs = {k: c for k, c in coeffs.items() if c}
        if not coeffs:
            raise ValueError("zero polynomial has no Mahler measure")
        self.lo = min(coeffs)
        p = _ascending(coeffs)
        scale = lcm(*(c.denominator for c in p))
        self.multiplicities = None
        if _squarefree_mod_p([c.numerator * (scale // c.denominator) for c in p]):
            self.lead, split = 1.0, [(p, 1)]
        else:
            self.lead, split = float(abs(p[-1])), _squarefree_parts(p)
            self.multiplicities = [m for _, m in split]
        self.parts, self.bits = [], 53
        for f, m in split:
            poly = np.array([float(c) for c in reversed(f)])  # descending
            if len(poly) > 2 and not poly[1:-1].any():  # a binomial needs no roots
                self.parts.append((poly, None, None, m, None))
                continue
            start, deg = np.roots(poly), len(poly) - 1
            roots = start.copy()
            # P, P' and sum |c_k| |z|^k in one Horner pass, step for step
            # np.polyval's
            coef = np.zeros((deg + 1, 3 * deg))
            coef[:, :deg], coef[:, 2 * deg :] = poly[:, None], np.abs(poly)[:, None]
            coef[1:, deg : 2 * deg] = np.polyder(poly)[:, None]
            for _ in range(2):
                last, x, val = roots.copy(), np.concatenate((roots, roots, np.abs(roots))), 0.0
                for c in coef:
                    val = val * x + c
                ok = np.abs(val[deg : 2 * deg]) > 1e-30
                roots[ok] = roots[ok] - val[:deg][ok] / val[deg : 2 * deg][ok]
            disks = None
            if deg > 1:
                disks = _float_disks(poly[0], last, val, roots)
                if not disks[3] <= _CERTIFIED:  # nan too
                    roots, disks, bits = _fixed_disks(f, start)
                    self.bits = max(self.bits, bits)
            self.parts.append((poly, roots, np.abs(roots), m, disks))

    def at(self, t=1) -> tuple[float, float]:
        """(M(P(t .)), error bound); t = 1 is the Mahler measure of P."""
        t = float(t)
        value = self.lead * t**self.lo
        # the lead as a float, float(t) raised to lo, 2 for pow's last ulp
        # and 1 for the product, in units of 2^-53 relative; _ULP > 2^-53
        # covers their second-order terms, and log_err bounds the sum of
        # the relative errors of every factor
        log_err = (abs(self.lo) + 4) * _ULP
        for poly, _, radii, m, disks in self.parts:
            deg = len(poly) - 1
            if radii is None:
                # a binomial has no root finder error: M = max(|c0|, |ck| t^k)
                # is within k + 4 roundings (the coefficient as a float, t as
                # a float raised to k, 2 for pow's last ulp and 1 for the
                # product)
                v = float(max(abs(poly[-1]), abs(poly[0]) * t**deg))
                rel = (deg + 4) * _ULP
            else:
                v = float(abs(poly[0]) * t**deg * np.prod(np.maximum(1.0, radii / t)))
                if disks is None:
                    # a part of degree <= 1 has no root finder error: its root
                    # r is one quotient, within 4 roundings of the exact root
                    # (2 for its coefficients as floats, 2 for the last Newton
                    # residual and update), and v adds at most 4 more (the
                    # leading coefficient as a float, t as a float, |r| / t
                    # and the product), so 8 * 2^-53 = 8.9e-16 < 1e-15
                    rel = 1e-15
                else:
                    # each root moves its factor max(t, |r|) by spread /
                    # max(t, floor) in log (_smith_disks); v itself is 5 deg
                    # + 4 roundings off the product over the float roots: t
                    # as a float in each factor, |z| (2), |z| / t, the
                    # product, t^deg (2), the coefficient and the product
                    rel = (5 * deg + 4) * _ULP
                    for s, f in zip(disks[1], disks[2]):
                        rel += s / (f if f > t else t)
            value *= v**m
            log_err += m * rel + 3 * _ULP  # v^m: pow's last ulp (2) and the product
        return value, value * expm1(log_err)


def mahler_univariate(coeffs: dict[int, Fraction]) -> tuple[float, float]:
    """Mahler measure |lead| * prod max(1, |root|) of a Laurent polynomial,
    as (value, error_bound): the t = 1 case of :class:`UnivariateRoots`."""
    return UnivariateRoots(coeffs).at(1)


def _mahler_estimate(coeffs: dict[int, Fraction], diagnostics: dict) -> FKEstimate:
    """:func:`mahler_univariate` as a roots estimate, with the precision its
    roots needed as ``root_bits`` (53 when the float pass certified)."""
    solve = UnivariateRoots(coeffs)
    value, err = solve.at(1)
    diagnostics["root_bits"] = solve.bits
    return FKEstimate(value, err, "roots", diagnostics)


def _power_rounding(x: Fraction, k: int) -> float:
    """A relative bound on the error of float(x) ** k, and of one product or
    quotient by it, against x^k for x >= 1: 0 when x is a power of two (as
    x = 1 and x = 2 are), whose powers are exact, else k + 3 roundings
    (float(x) k times, 2 for pow's last ulp and 1 for the product)."""
    a = x.numerator
    return 0.0 if x.denominator == 1 and a & (a - 1) == 0 else (k + 3) * _ULP


def _require_integers(group) -> None:
    if not isinstance(group, Integers):
        raise ValueError("det_integers needs an Integers coefficient group")


def det_integers(M: GroupRingMatrix, t0) -> FKEstimate:
    """Determinant over Z via the symbolic polynomial and its roots."""
    rows = _flat_rows(M)
    _require_positive(t0)
    _require_integers(M.group)
    return roots_estimate(M.group, _laplace(M.group, rows), t0)


def roots_estimate(group, D: dict, t0) -> FKEstimate:
    """The roots backend on a determinant already expanded over Z.

    ``D`` is det(M) exact in t, as the flat dict {(z exponent, t
    exponent): coefficient} of ``groupring._laplace``.  When every term is
    q z^k t^k with q an integer (the total-winding family) D is one
    polynomial Q(s), s = z t, and every t reads M(Q(t0 .)) from the one
    cached solve of :func:`_winding_roots`; otherwise t = t0 is
    substituted first.
    """
    t0 = _require_positive(t0)
    _require_integers(group)
    # an integral Fraction counts too: a rational matrix can have one
    if D and all(g == k and c.denominator == 1 for (g, k), c in D.items()):
        lo, hi = min(g for g, _ in D), max(g for g, _ in D)
        q = tuple(D.get((k, k), 0) for k in range(lo, hi + 1))
        solve, m = _winding_roots(lo, q)
        diagnostics = {"degree_span": [lo, hi], "cyclotomic_factor": m}
        if solve.multiplicities:
            diagnostics["multiplicities"] = list(solve.multiplicities)
        diagnostics["root_bits"] = solve.bits
        value, err = solve.at(t0)
        x = max(Fraction(1), t0)
        cyc = float(x) ** (m - 1)
        err += value * _power_rounding(x, m - 1)
        return FKEstimate(value * cyc, err * cyc, "roots", diagnostics)
    P = _at(D, t0)
    diagnostics: dict = {"degree_span": [min(P), max(P)] if P else None}
    if not P:
        diagnostics["non_injective"] = True
        return FKEstimate(0.0, 0.0, "roots", diagnostics)
    return _mahler_estimate(P, diagnostics)


@functools.lru_cache(maxsize=4)
def _winding_roots(lo: int, q: tuple[int, ...]) -> tuple[UnivariateRoots, int]:
    """The one root solve of Q(s) = sum q_k s^(lo + k), after dividing out
    the largest 1 + s + ... + s^(m-1) that divides it (m >= n under phi, by
    the Burau-Alexander formula): its roots lie on the unit circle, so
    M(Q(t .)) = max(1, t)^(m-1) M(Delta(t .)).  m = 1 always divides."""
    for m in range(len(q), 0, -1):
        delta = _cyclic_quotient(q, m)
        if delta is not None:
            return UnivariateRoots({lo + k: c for k, c in enumerate(delta)}), m


# --- quadrature backend (free abelian) ---------------------------------------


def _drop_unused_axes(P: dict[tuple, Fraction]) -> tuple[dict[tuple, Fraction], int]:
    """Project exponent tuples onto the coordinates that actually vary.

    Every dropped coordinate is 0 in every key, so no two keys meet.
    """
    d = len(next(iter(P)))
    used = [ax for ax in range(d) if any(k[ax] for k in P)]
    return {tuple(k[ax] for ax in used): c for k, c in P.items()}, len(used)


_QUAD_BLOCK = 2**15  # grid points evaluated per matrix product


def _log_abs_mean(P: dict[tuple, Fraction], d: int, n_grid: int, pair: bool = False) -> float:
    """Mean of log|P| over the midpoint tensor grid.

    The coefficients go into a dense array over the exponent box, so the
    result depends on the polynomial alone, not on its dict order.  Axes
    d-1, ..., 1 are contracted against per-axis phase tables
    W[k, j] = exp(i k theta_j), leaving T[k0, point of the other axes].
    Real coefficients give |P(-theta)| = |P(theta)|, and j -> n-1-j maps
    the midpoint grid to its negative, so only axis-0 rows j < n/2 are
    evaluated and counted twice (the middle row of an odd grid is its own
    mirror and counts once).  Exact zeros count as log 1e-300.

    With ``pair`` axis 0 has span 1, P = x0^lo (A + B x0), and the mean is
    of log max(|A|, |B|) over the grid of axes 1, ..., d-1 (Jensen's
    formula integrates x0 exactly): axis 0 stays uncontracted, A and B are
    evaluated side by side, and axis 1 takes the halving.
    """
    lo = [min(k[a] for k in P) for a in range(d)]
    hi = [max(k[a] for k in P) for a in range(d)]
    C = np.zeros([h - l + 1 for l, h in zip(lo, hi)])
    for k, c in P.items():
        C[tuple(k[a] - lo[a] for a in range(d))] = float(c)
    theta = 2.0 * np.pi * (np.arange(n_grid) + 0.5) / n_grid
    W = [np.exp(1j * np.outer(np.arange(lo[a], hi[a] + 1), theta)) for a in range(d)]
    h = int(pair)  # the axis that conjugate symmetry halves
    T = C
    for a in range(d - 1, h, -1):
        T = np.tensordot(T, W[a], axes=([a], [0]))
    T = T.reshape(C.shape[: h + 1] + (-1,))
    half = n_grid // 2
    rows = [(W[h][:, :half].T, 2.0)]
    if n_grid % 2:
        rows.append((W[h][:, half : half + 1].T, 1.0))
    total = 0.0
    for W0, weight in rows:
        step = max(1, _QUAD_BLOCK // W0.shape[0])
        for start in range(0, T.shape[-1], step):
            A = np.abs(W0 @ T[..., start : start + step])
            if pair:
                A = np.maximum(A[0], A[1])
            np.maximum(A, 1e-300, out=A)
            np.log(A, out=A)
            total += weight * float(A.sum())
    return total / float(n_grid ** (d - h))


def _require_free_abelian(group, grid: int) -> None:
    if not isinstance(group, FreeAbelian):
        raise ValueError("det_free_abelian needs a FreeAbelian coefficient group")
    _check_grid(grid)


def det_free_abelian(M: GroupRingMatrix, t0, grid: int = 128) -> FKEstimate:
    """Determinant over Z^d: the Mahler measure of the determinant polynomial."""
    rows = _flat_rows(M)
    _require_positive(t0)
    _require_free_abelian(M.group, grid)
    return quadrature_estimate(M.group, _laplace(M.group, rows), t0, grid)


def quadrature_estimate(group, D: dict, t0, grid: int = 128) -> FKEstimate:
    """The quadrature backend on a determinant already expanded over Z^d.

    ``D`` is det(M) exact in t, as the flat dict of ``groupring._laplace``;
    only t = t0 is substituted here, so one D serves every t.  A support
    on one line once shifted by one of its points (``groupring._line_steps``)
    is solved by roots, as a polynomial in the line's step; any other is
    integrated over the torus of the axes it uses, less the coordinate
    ``jensen_axis`` (diagnostics) that Jensen's formula integrates exactly.
    """
    t0 = _require_positive(t0)
    _require_free_abelian(group, grid)
    P0 = _at(D, t0)
    if not P0:
        return FKEstimate(0.0, 0.0, "quadrature", {"non_injective": True})
    k0 = next(iter(P0))
    shifted = {tuple(a - b for a, b in zip(k, k0)): c for k, c in P0.items()}
    line = _line_steps(group, ((v, 0) for v in shifted))
    if line is not None:
        steps = line[1]
        P = {steps[v, 0]: c for v, c in shifted.items()}
        return _mahler_estimate(P, {"reduced_to_univariate": True})
    P, d = _drop_unused_axes(P0)
    n = grid
    while (4 * n) ** d > 2**26:  # keep even the doubled grids affordable
        n //= 2
    if n < 16:
        raise ValueError(
            f"torus dimension {d} needs a grid below 16 to keep (4n)^{d} "
            "within the 2^26-point quadrature budget"
        )
    # Under a coarsened grid, Jensen's formula integrates a coordinate of
    # span 1 exactly, and the other axes run one doubling finer on fewer
    # points: 2 (8n)^(d-1) < (4n)^d for n >= 16 and d <= 5.  On a grid the
    # budget leaves alone the d-axis midpoint rule is the tighter one.
    spans = [max(k[a] for k in P0) - min(k[a] for k in P0) for a in range(len(k0))]
    pair = n < grid and 1 in spans
    diagnostics: dict = {"torus_dim": d}
    if pair:
        j = spans.index(1)
        P, _ = _drop_unused_axes({(k[j],) + k[:j] + k[j + 1 :]: c for k, c in P0.items()})
        diagnostics = {"torus_dim": d - 1, "jensen_axis": j}
        n *= 2
    grids = [n, 2 * n, 4 * n]
    logs = [float(_log_abs_mean(P, d, m, pair)) for m in grids]
    e1, e2 = logs[1] - logs[0], logs[2] - logs[1]
    val_log, err_log = logs[2], abs(e2) * 2.0 + 1e-13
    if e2 != 0.0 and abs(e1) > 1.5 * abs(e2):
        p = float(np.log2(abs(e1 / e2)))
        val_log = logs[2] + e2 / (2.0**p - 1.0)
    value = exp(val_log)
    err = value * (exp(err_log) - 1.0) + 1e-12
    diagnostics.update(grids=grids, refinement_diffs=[e1, e2])
    return FKEstimate(value, err, "quadrature", diagnostics)


# --- subgroup rewriting (Stallings folding) ----------------------------------


def fold_subgroup_basis(words: Sequence[FreeWord]) -> tuple[int, list[FreeWord]]:
    """Rewrite words over a free basis of the subgroup they generate.

    Builds a bouquet of loops labeled by the words and folds it into an
    immersion in one worklist pass: each vertex class keeps one label map
    {+-g: neighbour}, every edge is added at both ends, and a label already
    taken by another class merges the two classes (union-find), moving the
    smaller map into the larger one by pushing its edges back onto the
    worklist.  A folded vertex is named by the smallest original vertex in
    its class, so the result does not depend on merge order.  The edges off
    a BFS spanning tree (labels in order x1, x1^-1, x2, ...), numbered in
    sorted (u, g, v) order, are the basis, and each word is read off as the
    product of the basis edges along its path.  Returns (rank, rewritten
    words); the rank is 1 when the subgroup is trivial so callers always
    get a usable ambient group.
    """
    work: list[tuple[int, int, int]] = []  # (u, g, v): u --g--> v, g = +-generator
    n_vertices = 1
    for w in words:
        cur = 0
        letters = list(w.letters())
        for idx, (g, s) in enumerate(letters):
            nxt = 0 if idx == len(letters) - 1 else n_vertices
            if nxt != 0:
                n_vertices += 1
            work.append((cur, g * s, nxt))
            cur = nxt

    parent = list(range(n_vertices))
    labels: list[dict[int, int]] = [{} for _ in range(n_vertices)]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    while work:
        u, g, v = work.pop()
        for a, lab, b in ((u, g, v), (v, -g, u)):
            a, b = find(a), find(b)
            c = find(labels[a].setdefault(lab, b))
            if c != b:  # two lab-edges leave a: merge their far ends
                keep, gone = min(b, c), max(b, c)
                parent[gone] = keep
                big, small = labels[keep], labels[gone]
                if len(big) < len(small):
                    big, small = small, big
                labels[keep], labels[gone] = big, {}
                work.extend((keep, x, y) for x, y in small.items())

    adj = {
        v: {lab: find(t) for lab, t in labels[v].items()}
        for v in range(n_vertices)
        if parent[v] == v
    }
    tree_edges: set[tuple[int, int, int]] = set()
    order = [0]
    visited = {0}
    for v in order:
        for lab in sorted(adj[v], key=lambda x: (abs(x), x < 0)):
            t = adj[v][lab]
            if t not in visited:
                visited.add(t)
                order.append(t)
                tree_edges.add((v, lab, t) if lab > 0 else (t, -lab, v))

    fedges = sorted((u, g, v) for u, m in adj.items() for g, v in m.items() if g > 0)
    basis_index = {e: i for i, e in enumerate((e for e in fedges if e not in tree_edges), 1)}

    rank = max(len(basis_index), 1)
    rewritten = []
    for w in words:
        cur = 0
        out: list[tuple[int, int]] = []
        for g, s in w.letters():
            nxt = adj[cur][g * s]
            idx = basis_index.get((cur, g, nxt) if s > 0 else (nxt, g, cur))
            if idx is not None:
                out.append((idx, s))
            cur = nxt
        if cur != 0:
            raise AssertionError("folded path fails to close; folding bug")
        rewritten.append(make_word(rank, out))
    return rank, rewritten


# --- the truncated-ball walk --------------------------------------------------


class FreeBall:
    """The radius-R ball of a free group, numbered in suffix order.

    Letters are coded 2(g - 1) for x_g and 2(g - 1) + 1 for its inverse, so
    ``a ^ 1`` is the inverse of letter a.  Nodes are reduced words, level
    by level; within a level they are sorted by the reversed word, last
    letter most significant.  A level is then a mixed-radix number (A = 2
    rank choices for the last letter, A - 1 for each earlier one), the
    words with one suffix form a contiguous block, and the radius-(R-1)
    ball is the index prefix [0, offsets[R]).  Right multiplication by a
    word maps the ball onto itself in a few arithmetic runs
    (:meth:`runs`), so the ball stores nothing of its own size.
    """

    def __init__(self, rank: int, radius: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank
        self.radius = radius
        A = 2 * rank
        sizes = [1] + [A * (A - 1) ** (L - 1) for L in range(1, radius + 1)]
        self.offsets = [0, *itertools.accumulate(sizes)]  # level L is [offsets[L], offsets[L+1])
        self.size = self.offsets[-1]

    def runs(self, w: FreeWord) -> list[tuple[int, int, int, int, int]]:
        """Right multiplication x -> x w on the ball as arithmetic runs.

        A run (src, tgt, count, src_step, tgt_step) maps node
        src + i src_step to node tgt + i tgt_step for i < count.  Together
        the runs list every pair (x, x w) with both ends in the ball once,
        ordered by their first source.

        A node x that cancels exactly the first k letters of w sits at
        level L and maps to level L + |w| - 2k.  Over rank >= 2 those nodes
        form the block of suffix (w_1..w_k)^-1 minus the sub-block whose
        next letter would cancel further, and the map keeps the lower
        digits, so each (k, L) gives at most three unit-stride runs.  Rank 1
        is the integers, where runs of stride 2 span every level.
        """
        c = [2 * (g - 1) + (s < 0) for g, s in w.letters()]
        if not c:
            return [(0, 0, self.size, 1, 1)]
        runs = self._power_runs(c) if self.rank == 1 else self._word_runs(c)
        runs.sort()
        return runs

    def _power_runs(self, c: list[int]) -> list:
        """Runs of x^(+-f) on the rank-1 ball, where x^j sits at 2j - 1 and x^-j at 2j."""
        R, f, h = self.radius, len(c), c[0]

        def fwd(j):  # the power j on the side w points to
            return 2 * j - 1 + h

        def back(j):  # the power j on the other side
            return 2 * j - h

        runs = []
        if f <= R:
            runs += [(0, fwd(f), 1, 1, 1), (back(f), 0, 1, 1, 1)]
        if f < R:
            runs += [(fwd(1), fwd(1 + f), R - f, 2, 2), (back(f + 1), back(1), R - f, 2, 2)]
        lo, hi = max(1, f - R), min(f - 1, R)  # back(j) crosses the root to fwd(f - j)
        if lo <= hi:
            runs.append((back(lo), fwd(f - lo), hi - lo + 1, 2, -2))
        return runs

    def _word_runs(self, c: list[int]) -> list:
        R, off, n = self.radius, self.offsets, len(c)
        A = 2 * self.rank
        q = A - 1

        def slot(prev: int, a: int) -> int:  # digit of a after prev, which bars prev ^ 1
            return a - (a > prev ^ 1)

        # digits of the suffix (w_1..w_k)^-1 and of the word w_(k+1)..w_n,
        # each read from its last letter, as Horner values of their prefixes
        sval, uval = [0], [0]
        for i in range(n):
            sval.append(sval[-1] * q + (slot(c[i - 1] ^ 1, c[i] ^ 1) if i else c[0] ^ 1))
            j = n - 1 - i
            uval.append(uval[-1] * q + (slot(c[j + 1], c[j]) if i else c[j]))

        runs = []
        for k in range(min(n, R) + 1):
            if k < n:
                # x = (w_1..w_k)^-1 itself maps to w_(k+1)..w_n
                if n - k <= R:
                    runs.append((off[k] + sval[k], off[n - k] + uval[n - k], 1, 1, 1))
                # the letter before the suffix may be anything but w_k (the
                # word is reduced) and w_(k+1)^-1 (the cancellation is exact)
                barred = (c[k] ^ 1, c[k - 1]) if k else (c[k] ^ 1,)
                src_after = c[k - 1] if k else A
                tgt_after = c[k] ^ 1
                levels = range(k + 1, min(R, R - n + 2 * k) + 1)
                shift = n - 2 * k
                tprefix = uval[n - k]
            else:
                # x = y w^-1 maps to y, which may end in anything but w_n
                runs.append((off[n] + sval[n], 0, 1, 1, 1))
                barred = (c[n - 1],)
                src_after = c[n - 1]
                tgt_after = A
                levels = range(n + 1, R + 1)
                shift = -n
                tprefix = 0
            for lo, hi in _letter_segments(A, barred):
                ds = lo - (lo > src_after)
                dt = lo - (lo > tgt_after)
                for L in levels:
                    M = q ** (L - k - 1)
                    runs.append((
                        off[L] + (sval[k] * q + ds) * M,
                        off[L + shift] + (tprefix * q + dt) * M,
                        (hi - lo + 1) * M,
                        1,
                        1,
                    ))
        return runs


def _letter_segments(A: int, barred) -> list[tuple[int, int]]:
    """Maximal intervals [lo, hi] of letters 0..A-1 that avoid ``barred``."""
    segs, lo = [], 0
    for b in sorted(set(barred)) + [A]:
        if lo < b:
            segs.append((lo, b - 1))
        lo = b + 1
    return segs


def _clip(run, cut: int):
    """The part of a run with both ends below ``cut``, or None."""
    s0, t0, count, ss, ts = run
    lo, hi = 0, count
    for x0, st in ((s0, ss), (t0, ts)):
        if st > 0:
            hi = min(hi, (cut - 1 - x0) // st + 1)
        else:
            lo = max(lo, (x0 - cut) // -st + 1)
    if lo >= hi:
        return None
    return (s0 + ss * lo, t0 + ts * lo, hi - lo, ss, ts)


# a run this short costs a slice update more in call overhead than in
# pairs, so each term gathers all of its short runs at once
_SHORT_RUN = 256
# a walk step reads only the support of v_j while that support holds at
# most this share of the m x size nodes, then switches to slice updates
_SPARSE_SHARE = 1 / 64


def _run_slices(run) -> tuple[slice, slice]:
    s0, t0, count, ss, ts = run

    def sl(x0, st):
        stop = x0 + st * count
        return slice(x0, stop if stop >= 0 else None, st)

    return sl(s0, ss), sl(t0, ts)


def _ball_radius_for(rank: int, state_budget: int) -> int:
    A = 2 * rank
    total, level, radius = 1, 1, 0
    while radius < 4096:
        level = A if radius == 0 else level * max(A - 1, 1)
        if total + level > state_budget:
            return radius
        total += level
        radius += 1
    return radius


@dataclasses.dataclass
class _SeriesResult:
    log_det: float
    error_log: float
    diagnostics: dict


@dataclasses.dataclass
class _Moments:
    """What one ball walk learns about a positive operator B (m x m)."""

    m: int
    rank: int
    norm_bound: float  # c0
    radius: int
    taus: np.ndarray  # tr((Id - B/c0)^k), k = 1..K, on the radius-R ball
    # the same on the radius-(R-1) ball, if R > 2: the index prefix of the
    # radius-R ball, walked with the same runs
    taus_small: np.ndarray | None
    exact_moments: int  # tau_1..tau_K0 are moments of B itself, not of its truncation


def _norm_bound(entries: list[list[dict[FreeWord, float]]]) -> float:
    """Max row sum of entry l1 norms; bounds the norm of a self-adjoint B.

    The sums are exactly rounded, so the bound does not depend on term order.
    """
    return max(fsum(abs(v) for e in row for v in e.values()) for row in entries)


def _fit_tail(taus: np.ndarray, series_len: int) -> tuple[float, float, dict]:
    """Complete the series sum_{k>K} tau_k / k by a fitted decay model.

    Fits both a power law a k^-p and a geometric a r^k on the last window
    and keeps the better residual.  Returns (tail, spread, info).
    """
    if taus[-1] <= 1e-14:
        return 0.0, 0.0, {"tail_model": "negligible"}
    candidates = []
    for window in (8, 12):
        w = min(window, series_len - 2)
        kk = np.arange(series_len - w + 1, series_len + 1, dtype=float)
        tt = taus[-w:]
        if np.any(tt <= 0):
            continue
        lt = np.log(tt)
        # power law
        Ap = np.vstack([np.ones(w), -np.log(kk)]).T
        coef, res_p, *_ = np.linalg.lstsq(Ap, lt, rcond=None)
        lna, p = coef
        res_p = float(res_p[0]) if len(res_p) else 0.0
        if p > 0.02:
            tail_p = float(exp(lna) * ((series_len + 0.5) ** (-p)) / p)
            candidates.append((res_p, tail_p, "power", float(p)))
        # geometric
        Ag = np.vstack([np.ones(w), kk]).T
        coef, res_g, *_ = np.linalg.lstsq(Ag, lt, rcond=None)
        lna, lr = coef
        res_g = float(res_g[0]) if len(res_g) else 0.0
        r = exp(min(lr, -1e-12))
        if r < 0.999:  # a ratio this close to 1 makes the closed form blow up
            tail_g = float(exp(lna) * (r ** (series_len + 1)) / ((series_len + 1) * (1.0 - r)))
            candidates.append((res_g, tail_g, "geometric", float(r)))
    if not candidates:
        return 0.0, 0.0, {"tail_model": "none"}
    candidates.sort()
    best = candidates[0]
    spread = max(t for _, t, _, _ in candidates) - min(t for _, t, _, _ in candidates)
    return float(best[1]), float(spread), {"tail_model": best[2], "tail_param": best[3]}


def _trace_moments(
    entries: list[list[dict[FreeWord, Fraction | float]]],
    rank: int,
    series_len: int,
    state_budget: int,
) -> _Moments:
    """Walk tau_k = tr((Id - B/c0)^k), k = 1..series_len, for a positive B.

    ``entries`` holds B as an m x m matrix of {word: coefficient} sums over
    Free(rank), exact or float and walked in floats; B must be self-adjoint
    (entry (j, i) at w^-1 equals entry (i, j) at w), else ``ValueError``.
    The walk runs on the largest ball the state budget allows, where
    T = Id - B/c0 truncates to the self-adjoint P T P, so with
    v_j = (P T P)^j e the traces are
    tau_2j = <v_j, v_j> and tau_2j+1 = <v_j, v_j+1>: ceil(K/2) steps give
    K traces.  Each word acts through its runs in the suffix-ordered ball
    (:meth:`FreeBall.runs`), so a step is a few slice updates per term
    and one gather over the term's short runs, on v_j scaled by a power of
    its commonest coefficient so that most updates are a plain add (see
    :func:`_half_walk`), or, while v_j is sparse, a scatter over its
    support.  The radius-(R-1) ball that measures the truncation is the
    index prefix [0, offsets[R]) of the big one, walked with the same runs
    clipped to it.  Terms are walked in word order, and the scale and the
    gathers depend only on them, so equal matrices give bit-identical
    traces however their entries were assembled.
    """
    entries = [
        [
            {w: float(c) for w, c in sorted(e.items(), key=lambda wc: Free.sort_key(wc[0]))}
            for e in row
        ]
        for row in entries
    ]
    m = len(entries)
    c = _norm_bound(entries)
    if c == 0.0:
        raise ValueError("zero operator has no regular determinant")
    radius = _ball_radius_for(rank, state_budget)
    ball = FreeBall(rank, radius)
    diag, terms = _mirror_terms(entries, c)
    runs = {w: ball.runs(w) for w in {w for *_, w in terms}}
    taus = _half_walk(diag, [(i, j, cw, runs[w]) for i, j, cw, w in terms], ball.size, series_len)
    taus_small = None
    if radius > 2:
        cut = ball.offsets[radius]
        clipped = {w: [r for r in (_clip(r, cut) for r in rs) if r] for w, rs in runs.items()}
        inner = [(i, j, cw, clipped[w]) for i, j, cw, w in terms]
        taus_small = _half_walk(diag, inner, cut, series_len)
    # a closed walk of k steps stays within radius floor(k/2) * longest word
    longest = max((w.length() for *_, w in terms), default=0)
    exact = series_len if longest == 0 else min(series_len, 2 * (radius // longest) + 1)
    return _Moments(m, rank, c, radius, taus, taus_small, exact)


def _mirror_terms(entries, c: float) -> tuple[np.ndarray, list]:
    """Split Id - B/c into a diagonal and one term per mirror pair.

    The (j, i, w^-1) term of a self-adjoint B is the transpose of the
    (i, j, w) term, so only the one whose word is the smaller of
    {w, w^-1} is kept, and the identity word on i = j goes to the diagonal.
    Returns (diagonal, [(i, j, coefficient, w)]).
    """
    m = len(entries)
    diag = np.ones(m)
    terms = []
    for i in range(m):
        for j in range(m):
            for w, cw in entries[i][j].items():
                winv = w.inverse()
                if entries[j][i].get(winv) != cw:
                    raise ValueError(
                        f"walked operator is not self-adjoint: entry ({i}, {j}) at "
                        f"{w} has no equal mirror at ({j}, {i})"
                    )
                if w.is_identity():
                    if i == j:
                        diag[i] -= cw / c
                    elif i < j:
                        terms.append((i, j, -cw / c, w))
                elif Free.sort_key(w) < Free.sort_key(winv):
                    terms.append((i, j, -cw / c, w))
    return diag, terms


_UNIT_OPS = {1.0: np.add, -1.0: np.subtract}  # the update y +-= x of a unit coefficient


def _half_walk(diag: np.ndarray, steps: list, size: int, series_len: int) -> np.ndarray:
    """tau_1..tau_K of the self-adjoint walk on ``size`` nodes, in ceil(K/2) steps.

    Each step entry (i, j, coefficient, runs) adds both its term and the
    mirror term.  While the support of v_j is small, a step reads that
    support only (:func:`_sparse_steps`); then the walk carries on in the
    same two buffers, alternating between them, on u_j = v_j / f_j with
    the scaled updates of :func:`_dense_updates`: u_(j+1) = (T / s) u_j,
    so f_(j+1) = s f_j and the traces take the factors f_j f_(j+1) and
    f_(j+1)^2.  Each long run is one slice update, most of them a plain
    add or subtract (coefficient +-1).  Whenever <u_(j+1), u_(j+1)> leaves
    [2^-500, 2^500] an exact power of two moves from u_(j+1) into
    f_(j+1), so even 512 traces stay finite.  The stride-2 runs of rank 1
    overlap in their reads and walk densely from the start.
    """
    m = len(diag)
    n_steps = (series_len + 1) // 2
    taus = np.zeros(2 * n_steps)
    bufs = (np.empty((m, size)), np.empty((m, size)))
    flat = [b.reshape(-1) for b in bufs]
    s, slices, gathers = _dense_updates(steps, size)
    # updates[k % 2] is step k, which reads bufs[k % 2] and writes the other
    updates = [
        [(_UNIT_OPS.get(a), a, v[r][src], nv[w][tgt]) for a, r, src, w, tgt in slices]
        for v, nv in (bufs, bufs[::-1])
    ]
    scaled_diag = (diag / s)[:, None]
    unit = all(r[3] == r[4] == 1 for *_, runs in steps for r in runs)
    terms = _directed_terms(steps) if unit else None
    for comp in range(m):
        for b in bufs:
            b.fill(0.0)
        bufs[0][comp, 0] = 1.0
        start = 0 if terms is None else _sparse_steps(diag, terms, bufs, comp, n_steps, taus)
        f = 1.0  # v_k = f u_k, and the sparse steps leave u_start = v_start
        for k in range(start, n_steps):
            u, nu = bufs[k % 2], bufs[1 - k % 2]
            uf, nuf = flat[k % 2], flat[1 - k % 2]
            np.multiply(scaled_diag, u, out=nu)
            for op, a, x, y in updates[k % 2]:
                if op is None:
                    np.add(y, a * x, out=y)
                else:
                    op(y, x, out=y)
            for a, src, tgt in gathers:
                x = uf[src]
                if a == -1.0:
                    nuf[tgt] -= x
                else:
                    nuf[tgt] += x if a == 1.0 else a * x
            nf = f * s
            taus[2 * k] += f * nf * np.vdot(u, nu)
            dot = np.vdot(nu, nu)
            taus[2 * k + 1] += nf * nf * dot
            if dot and not 2.0**-500 <= dot <= 2.0**500:
                shift = frexp(dot)[1] // 2
                np.multiply(nu, 2.0**-shift, out=nu)
                nf *= 2.0**shift
            f = nf
    return taus[:series_len]


def _dense_updates(steps: list, size: int) -> tuple[float, list, list]:
    """The scaled updates of a dense step of :func:`_half_walk`.

    s is the coefficient magnitude over the most run pairs (the larger on
    a tie), and every coefficient is divided by it.  A run of at least
    _SHORT_RUN pairs is one (coefficient, read row, source slice, write
    row, target slice) update in each direction.  The shorter runs of a
    term go into one (coefficient, sources, targets) gather per direction,
    over the flattened m x size buffers.  Targets are distinct within a
    run and within a gather, as x -> x w is injective.  Both depend only
    on the step entries, which come in word order, so equal matrices give
    the same updates.  Returns (s, slice updates, gathers).
    """
    weight: dict[float, int] = {}
    for *_, cw, runs in steps:
        pairs = sum(r[2] for r in runs)
        if cw and pairs:
            weight[abs(cw)] = weight.get(abs(cw), 0) + pairs
    s = max(weight, key=lambda a: (weight[a], a), default=1.0)
    slices, gathers = [], []
    for i, j, cw, runs in steps:
        a = cw / s
        few = [r for r in runs if r[2] < _SHORT_RUN]
        for r in runs:
            if r[2] >= _SHORT_RUN:
                src, tgt = _run_slices(r)
                slices += [(a, j, src, i, tgt), (a, i, tgt, j, src)]
        if few:
            src = np.concatenate([s0 + ss * np.arange(n) for s0, _, n, ss, _ in few])
            tgt = np.concatenate([t0 + ts * np.arange(n) for _, t0, n, _, ts in few])
            gathers += [(a, j * size + src, i * size + tgt), (a, i * size + tgt, j * size + src)]
    return s, slices, gathers


def _directed_terms(steps: list) -> list:
    """Every step entry as its two directed terms for :func:`_sparse_steps`.

    A term (read row, write row, coefficient, starts, ends, shifts) maps
    node x of the read row, with starts[r] <= x < ends[r], to node
    x + shifts[r] of the write row.  The runs are unit-stride and sorted
    by read start; their reads are disjoint because x -> x w is injective.
    """
    terms = []
    for i, j, cw, runs in steps:
        if not runs:
            continue
        r = np.array([run[:3] for run in runs], dtype=np.int64)
        for read, write, a, b in ((j, i, 0, 1), (i, j, 1, 0)):
            order = np.argsort(r[:, a], kind="stable")
            starts = r[order, a]
            terms.append((read, write, cw, starts, starts + r[order, 2], r[order, b] - starts))
    return terms


def _sparse_steps(diag: np.ndarray, terms: list, bufs, comp: int, n_steps: int, taus) -> int:
    """The first steps of :func:`_half_walk` from e_comp, on the support only.

    Both buffers hold v_0 = e_comp and 0.  Step k reads v_k on its support
    S_k, zeroes v_(k-1) on S_(k-1), writes v_(k+1) in place and marks its
    targets; those not marked before in the step, sorted, are S_(k+1), so
    no step scans the whole mask.  The traces are dot products over S_k
    and S_(k+1).  Runs while the support holds at most _SPARSE_SHARE of
    the nodes and returns the number of steps taken; v_k is then whole in
    bufs[k % 2] and the other buffer is overwritten by the next step.
    """
    m, size = bufs[0].shape
    limit = _SPARSE_SHARE * m * size
    bounds = np.arange(m + 1) * size
    mask = np.zeros(m * size, dtype=bool)
    supp, prev = np.array([comp * size]), np.array([], dtype=np.int64)
    for k in range(n_steps):
        if len(supp) > limit:
            return k
        v, nv = bufs[k % 2].reshape(-1), bufs[1 - k % 2].reshape(-1)
        nv[prev] = 0.0
        x = v[supp]
        cut = np.searchsorted(supp, bounds)
        rows = []  # (nodes within the row, their values) per row
        fresh = [supp[:0]]  # the targets of this step, each once
        for r, (a, b) in enumerate(zip(cut, cut[1:])):
            nodes = supp[a:b]
            nv[nodes] = diag[r] * x[a:b]
            if diag[r]:
                mask[nodes] = True
                fresh.append(nodes)
            rows.append((nodes - bounds[r], x[a:b]))
        for read, write, cw, starts, ends, shifts in terms:
            nodes, vals = rows[read]
            run = np.searchsorted(starts, nodes, side="right") - 1
            hit = (run >= 0) & (nodes < ends[run])
            tgt = nodes[hit] + shifts[run[hit]] + bounds[write]
            nv[tgt] += cw * vals[hit]  # targets are distinct within a term
            tgt = tgt[~mask[tgt]]
            mask[tgt] = True
            fresh.append(tgt)
        taus[2 * k] += np.dot(x, nv[supp])
        if sum(map(len, fresh)) > limit:
            taus[2 * k + 1] += np.vdot(nv, nv)
            return k + 1
        # the pieces are sorted runs, which a stable (merge) sort joins cheaply
        prev, supp = supp, np.sort(np.concatenate(fresh), kind="stable")
        mask[supp] = False
        y = nv[supp]
        taus[2 * k + 1] += np.dot(y, y)
    return n_steps


def _series_from_moments(mom: _Moments, accel: bool, eps: float = 0.0) -> _SeriesResult:
    """log det(B + eps Id) from the walked moments of B, for any eps >= 0.

    Id - (B + eps)/(c0 + eps) = q (Id - B/c0) with q = c0/(c0 + eps), so the
    shifted traces and truncation delta are the walked ones scaled by q^k;
    :func:`_fit_tail` completes the tail of sum tau_k / k.
    """
    series_len = len(mom.taus)
    c = mom.norm_bound + eps
    ks = np.arange(1, series_len + 1, dtype=float)
    scale = (mom.norm_bound / c) ** ks
    taus = mom.taus * scale
    trunc_delta = 0.0
    if mom.taus_small is not None:
        trunc_delta = float(np.abs((mom.taus - mom.taus_small) * scale / ks).sum())

    S = float(np.sum(taus / ks))
    tail, spread, tail_info = (0.0, 0.0, {"tail_model": "off"})
    if accel:
        tail, spread, tail_info = _fit_tail(taus, series_len)
    last_term = float(taus[-1] / series_len)
    log_det = mom.m * log(c) - S - tail
    if accel and tail:
        error_log = 3.0 * spread + 0.05 * tail + 2.0 * trunc_delta + 1e-12
    else:
        # without a tail model, budget for decay as slow as k^(-1/2),
        # whose remaining sum is about twice the last whole term
        error_log = 3.0 * float(taus[-1]) + 2.0 * trunc_delta + 1e-12
    diagnostics = {
        "rank": mom.rank,
        "radius": mom.radius,
        "norm_bound": c,
        "series_len": series_len,
        "tail_completion": tail,
        "truncation_delta": trunc_delta,
        "exact_moments": mom.exact_moments,
        "last_term": last_term,
        # truncated while terms are still material and nothing completed them
        "tail_vacuous": bool(not tail and float(taus[-1]) > 1e-3),
    }
    diagnostics.update(tail_info)
    return _SeriesResult(log_det, error_log, diagnostics)


# --- free group determinants ---------------------------------------------------


def _walk_matrix(support: list[list[dict[FreeWord, Fraction]]]):
    """The positive operator matrix M* M in display layout.

    Operator composition reverses entry products, so the (i, k) entry is
    sum_j M[j][k] * adj(M[j][i]); the ball walk then raises it to operator
    powers directly (closed index cycles with chronological word order).
    """
    m = len(support)
    adj = [[{w.inverse(): c for w, c in e.items()} for e in row] for row in support]
    out: list[list[dict[FreeWord, Fraction]]] = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for k in range(m):
            for j in range(m):
                _flat_addmul(out[i][k], support[j][k], adj[j][i], operator.mul)
    return out


def _rewrite_entries(entries):
    """Jointly rewrite all entry supports over a basis of their subgroup."""
    words = sorted({w for row in entries for e in row for w in e}, key=Free.sort_key)
    if not words:
        return 1, [[{} for e in row] for row in entries]
    rank, rewritten = fold_subgroup_basis(words)
    table = dict(zip(words, rewritten))
    return rank, [[{table[w]: c for w, c in e.items()} for e in row] for row in entries]


def _series_to_estimate(res: _SeriesResult, method: str) -> FKEstimate:
    value = exp(0.5 * res.log_det)
    err = value * (exp(0.5 * res.error_log) - 1.0)
    return FKEstimate(value, err, method, res.diagnostics)


# ball states the trace series and the eps walk may visit (the longest
# series is ``groupring._MAX_SERIES_LEN``)
_SERIES_STATE_BUDGET = 1_200_000
_EPS_STATE_BUDGET = 400_000


def _substituted(E: list, t0, series_len: int, method: str) -> tuple[list, FKEstimate | None]:
    """The front end of series and eps: check t and ``series_len``, then
    substitute t = t0 in E.  Returns (support, None), or ([], the
    estimate) when E is empty or zero."""
    t0 = _require_positive(t0)
    _check_series_len(series_len)
    if not E:
        return [], FKEstimate(1.0, 0.0, method, {"empty": True})
    support = [[_at(e, t0) for e in row] for row in E]
    if all(not e for row in support for e in row):
        return [], FKEstimate(0.0, 0.0, method, {"non_injective": True})
    return support, None


def det_free_group(M: GroupRingMatrix, t0, series_len: int = 30, accel: bool = True) -> FKEstimate:
    """Regular determinant over a free group: :func:`series_estimate` on M."""
    return series_estimate(M.group, _flat_rows(M), t0, series_len, accel)


def series_estimate(group, E: list, t0, series_len: int = 30, accel: bool = True) -> FKEstimate:
    """Regular determinant over a free group via the von Neumann trace
    series, of E given as rows of flat entries, exact in t.

    1x1 operators are rewritten over a free basis of the subgroup their
    support generates, which shrinks both the ambient rank and the word
    lengths; when that subgroup has rank 1 the support is a Laurent
    polynomial in its generator, and the roots backend's Mahler measure
    is exact.  A 2x2 matrix with a one-term (hence invertible) entry is
    reduced to the 1x1 case through det [[A,B],[C,D]] = det(B)
    det(A B^-1 D - C); larger matrices run the series directly and flag
    that injectivity was assumed.
    """
    _require_positive(t0)  # a bad t is reported before a bad group
    if not isinstance(group, Free):
        raise ValueError("det_free_group needs a Free coefficient group")
    support, done = _substituted(E, t0, series_len, "trace_series")
    if done:
        return done
    m = len(support)
    if m == 1:
        return _det_free_single(support[0][0], series_len, accel)

    if m == 2:
        reduced = _two_by_two_reduce(support)
        if reduced is not None:
            factor, schur = reduced
            est = _det_free_single(schur, series_len, accel)
            est.value *= factor
            est.error_bound *= factor
            est.diagnostics["two_by_two_factor"] = factor
            return est

    rank, flat = _rewrite_entries(_walk_matrix(support))
    mom = _trace_moments(flat, rank, series_len, _SERIES_STATE_BUDGET)
    res = _series_from_moments(mom, accel)
    res.diagnostics["injectivity_assumed"] = True
    return _series_to_estimate(res, "trace_series")


def _det_free_single(e: dict[FreeWord, Fraction], series_len: int, accel: bool) -> FKEstimate:
    if not e:
        return FKEstimate(0.0, 0.0, "trace_series", {"non_injective": True})
    # a left unitary factor is determinant-neutral and invisible to A*A, so
    # rebase the support at a shortest word before extracting the subgroup
    w0inv = min(e, key=Free.sort_key).inverse()
    rank, [[a]] = _rewrite_entries([[{w0inv * w: c for w, c in e.items()}]])
    if rank == 1:  # a Laurent polynomial in the one generator: exact roots
        uni = {sum(x for _, x in w.syllables): c for w, c in a.items()}
        return _mahler_estimate(uni, {"subgroup_rank": 1, "reduced_to_univariate": True})
    b: dict[FreeWord, Fraction] = {}  # A* A over the subgroup basis
    _flat_addmul(b, {w.inverse(): c for w, c in a.items()}, a, operator.mul)
    mom = _trace_moments([[b]], rank, series_len, _SERIES_STATE_BUDGET)
    res = _series_from_moments(mom, accel)
    res.diagnostics["subgroup_rank"] = rank
    return _series_to_estimate(res, "trace_series")


def _two_by_two_reduce(support):
    """Reduce a 2x2 matrix with an invertible monomial entry to 1x1.

    Row and column swaps (determinant-neutral unitaries) bring any
    one-term entry to the B slot of [[A,B],[C,D]]; the remaining factor is
    A B^-1 D - C with plain left-to-right word products, matching operator
    composition for matrices stored in display layout.
    """
    [[a, b], [c, d]] = support
    for bb, (A, B, C, D) in (
        (b, (a, b, c, d)),
        (a, (b, a, d, c)),
        (d, (c, d, a, b)),
        (c, (d, c, b, a)),
    ):
        if bb and len(bb) == 1:
            ((gw, gc),) = B.items()
            ginv = gw.inverse()
            ab = {w * ginv: c / gc for w, c in A.items()}  # A B^-1
            schur: dict[FreeWord, Fraction] = {}
            _flat_addmul(schur, ab, D, operator.mul)
            _flat_add(schur, C, -1)
            return abs(float(gc)), schur
    return None


# --- epsilon regularization -----------------------------------------------------


def _neville_to_zero(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Polynomial extrapolation of (xs, ys) to x = 0 with a crude error."""
    tableau = [list(ys)]
    for lvl in range(1, len(xs)):
        row = []
        for i in range(len(xs) - lvl):
            x0, x1 = xs[i], xs[i + lvl]
            a, b = tableau[lvl - 1][i], tableau[lvl - 1][i + 1]
            row.append((x0 * b - x1 * a) / (x0 - x1))
        tableau.append(row)
    best = tableau[-1][0]
    prev = tableau[-2][0] if len(tableau) > 1 else ys[-1]
    return best, abs(best - prev)


def det_epsilon_reg(
    M: GroupRingMatrix, t0, series_len: int = 60, state_budget: int = _EPS_STATE_BUDGET
) -> FKEstimate:
    """Epsilon-regularized determinant: :func:`epsilon_estimate` on M."""
    return epsilon_estimate(M.group, _flat_rows(M), t0, series_len, state_budget)


def epsilon_estimate(
    group, E: list, t0, series_len: int = 60, state_budget: int = _EPS_STATE_BUDGET
) -> FKEstimate:
    """sqrt(det(A* A + eps Id)) extrapolated along a decreasing eps sequence.

    Each shifted operator has spectrum inside [eps, c], so its inner trace
    series converges geometrically; all of them rescale the traces of one
    walk over A* A (see :func:`_series_from_moments`).  The eps limit is
    then taken by polynomial extrapolation, in both eps and sqrt(eps),
    keeping whichever settles better.  Supported over Z and over free
    groups (Z embeds as the rank-one free group for the walk); ``E`` is
    read as in :func:`series_estimate`.
    """
    support, done = _substituted(E, t0, series_len, "epsilon_reg")
    if done:
        return done
    if isinstance(group, Free):
        as_words = support
    elif isinstance(group, Integers):
        as_words = [
            [{FreeWord.gen(1, 1, k): c for k, c in e.items()} for e in row] for row in support
        ]
    else:
        raise ValueError(
            "epsilon regularization runs over Z or free groups; use "
            "det_free_abelian for Z^d"
        )

    rank, flat = _rewrite_entries(_walk_matrix(as_words))
    mom = _trace_moments(flat, rank, series_len, state_budget)
    epsilons = [mom.norm_bound * 0.15 / (4.0**i) for i in range(6)]
    series = [_series_from_moments(mom, True, eps) for eps in epsilons]
    logs = [res.log_det for res in series]
    series_err = max(res.error_log for res in series)

    v_lin, e_lin = _neville_to_zero(epsilons, logs)
    v_sqrt, e_sqrt = _neville_to_zero([sqrt(x) for x in epsilons], logs)
    if e_sqrt <= e_lin:
        best, err_log, variable = v_sqrt, e_sqrt, "sqrt(eps)"
    else:
        best, err_log, variable = v_lin, e_lin, "eps"
    diagnostics = {
        "epsilons": epsilons,
        "log_dets": logs,
        "extrapolation_variable": variable,
        "rank": rank,
        "radius": mom.radius,
        "series_len": series_len,
        # the smallest eps scales the walked truncation delta the least
        "truncation_delta": series[-1].diagnostics["truncation_delta"],
        "exact_moments": mom.exact_moments,
    }
    err_log = 2.0 * err_log + series_err + 1e-12
    return _series_to_estimate(_SeriesResult(best, err_log, diagnostics), "epsilon_reg")
