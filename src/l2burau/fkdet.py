"""Fuglede-Kadison determinant estimation over the computable groups.

Three backends, one per coefficient group, plus epsilon regularization:

* ``det_integers`` - symbolic one-variable determinant, then the Mahler
  measure from polynomial roots (exact up to root-finding tolerance;
  repeated roots are split off exactly first).
* ``det_free_abelian`` - symbolic multivariate determinant, then the
  Mahler measure as a midpoint tensor quadrature of log|P| on the torus,
  with grid doublings supplying the error bound.  P is evaluated from its
  dense coefficient box and one phase table per axis, on the half of the
  grid that conjugate symmetry leaves, in fixed-size blocks.  Supports
  touching at most one coordinate fall back to the exact root method.

  Both take a matrix and expand its determinant, exact in t, before they
  substitute t = t0.  Their polynomial-level entry points
  ``roots_estimate(D, t0)`` and ``quadrature_estimate(D, t0, grid)``
  start from that determinant D instead, with the same checks and
  messages, so a caller evaluating one matrix at several t expands it
  once (``torsion.fq_value`` does).
* ``det_free_group`` - a von Neumann trace series for log det.  Traces
  tr((Id - B/c)^k) are computed by propagating a vector over a
  radius-truncated ball of a free group (numbered in suffix order, so a
  word acts on it as a few arithmetic runs), after rewriting the support
  over a free basis of the subgroup it generates.  The slowly decaying
  tail of the series is completed by a fitted power-law or geometric
  model.  A single entry whose subgroup has rank 1 is a Laurent
  polynomial and goes to the exact root method instead.
* ``det_epsilon_reg`` - determinants of A*A + eps Id for a decreasing
  eps sequence, extrapolated to eps -> 0.  Every shifted series is derived
  from the moments of one walk, so it checks the tail model and the eps
  extrapolation, not the walk itself.

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
import itertools
import operator
from fractions import Fraction
from math import exp, fsum, log, sqrt
from typing import Sequence

import numpy as np

from .freegroup import FreeWord, word as make_word
from .groupring import (
    Free,
    FreeAbelian,
    GroupRingElement,
    GroupRingMatrix,
    Integers,
    _flat_add,
    _flat_addmul,
)


@dataclasses.dataclass
class FKEstimate:
    """A determinant estimate with provenance and convergence diagnostics."""

    value: float
    error_bound: float | None  # None means "unknown"
    method: str
    diagnostics: dict = dataclasses.field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "error_bound": "unknown" if self.error_bound is None else self.error_bound,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


def _require_square(M: GroupRingMatrix):
    if M.rows != M.cols:
        raise ValueError(f"determinant needs a square matrix, got {M.shape}")


def _require_positive(t0) -> Fraction:
    t0 = Fraction(t0)
    if t0 <= 0:
        raise ValueError("t must be positive")
    return t0


# --- roots backend (integers) -----------------------------------------------


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder over Q of ascending coefficient lists.

    ``den`` must have a nonzero top coefficient; the remainder comes back
    without trailing zeros, so an exact division leaves ``[]``.
    """
    rem = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        coef = rem[k + len(den) - 1] / den[-1]
        q[k] = coef
        if coef:
            for j, dc in enumerate(den):
                rem[k + j] -= coef * dc
    return q, _trimmed(rem[: len(den) - 1])


def _trimmed(p: list) -> list:
    """``p`` without its zero top coefficients; the zero polynomial is []."""
    while p and not p[-1]:
        p = p[:-1]
    return p


def _laurent_divide_exact(num: dict[int, Fraction], den: dict[int, Fraction]):
    """Exact Laurent division; returns the quotient or raises."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return {}
    q, rem = _poly_divmod(_ascending(num), _ascending(den))
    if rem:
        raise ArithmeticError("inexact Laurent division")
    shift = min(num) - min(den)
    return {k + shift: c for k, c in enumerate(q) if c}


def _ascending(coeffs: dict[int, Fraction]) -> list[Fraction]:
    """Coefficients from the lowest power to the highest, gaps as zeros."""
    return [Fraction(coeffs.get(k, 0)) for k in range(min(coeffs), max(coeffs) + 1)]


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _monic_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _squarefree_parts(p: list) -> list[tuple[list, int]]:
    """Yun's algorithm over Q: p = lead(p) * prod f_i^i, as [(f_i, i)].

    The f_i are monic, square-free and pairwise coprime; constant parts
    are left out.  Every division but the gcd remainders is exact.
    """
    dp = _derivative(p)
    a = _monic_gcd(p, dp)
    b, c = _poly_divmod(p, a)[0], _poly_divmod(dp, a)[0]
    parts, mult = [], 1
    while len(b) > 1:
        d = _trimmed([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _monic_gcd(b, d)
        if len(a) > 1:
            parts.append((a, mult))
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        mult += 1
    return parts


def _has_cluster(roots: np.ndarray) -> bool:
    """Two roots within 1e-4 max(1, |r|) of each other."""
    gap = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gap, np.inf)
    return bool((gap < 1e-4 * np.maximum(1.0, np.abs(roots))[:, None]).any())


def _mahler_from_roots(poly: np.ndarray, roots: np.ndarray) -> tuple[float, float]:
    """|lead| * prod max(1, |root|) for descending ``poly``, after two
    Newton polish steps on its ``roots``; returns (value, error_bound)."""
    dpoly = np.polyder(poly)
    for _ in range(2):
        vals = np.polyval(poly, roots)
        dvals = np.polyval(dpoly, roots)
        ok = np.abs(dvals) > 1e-30
        roots[ok] = roots[ok] - vals[ok] / dvals[ok]
    value = float(abs(poly[0]) * np.prod(np.maximum(1.0, np.abs(roots))))
    deg = len(poly) - 1
    return value, value * 5e-12 * (deg + 1) ** 2 + 1e-14


def mahler_univariate(coeffs: dict[int, Fraction]) -> tuple[float, float]:
    """Mahler measure |lead| * prod max(1, |root|) of a Laurent polynomial.

    Returns (value, error_bound).  A repeated root costs the root finder
    about half its digits, so when ``np.roots`` returns a cluster P is
    split exactly into square-free parts P = lead * prod f_i^i (see
    :func:`_squarefree_parts`) and M(P) = |lead| * prod M(f_i)^i, with
    the factors' relative bounds summed i times each.
    """
    if not coeffs:
        raise ValueError("zero polynomial has no Mahler measure")
    lo, hi = min(coeffs), max(coeffs)
    poly = np.zeros(hi - lo + 1)
    for k, c in coeffs.items():
        poly[hi - k] = float(c)  # descending powers for numpy
    if hi == lo:
        return float(abs(poly[0])), float(abs(poly[0])) * 1e-15
    roots = np.roots(poly)
    if not _has_cluster(roots):
        return _mahler_from_roots(poly, roots)
    value, rel = float(abs(poly[0])), 0.0
    for f, mult in _squarefree_parts(_ascending(coeffs)):
        fpoly = np.array([float(c) for c in reversed(f)])
        v, err = _mahler_from_roots(fpoly, np.roots(fpoly))
        value *= v**mult
        rel += mult * err / v
    return value, value * rel


def _require_integers(group) -> None:
    if not isinstance(group, Integers):
        raise ValueError("det_integers needs an Integers coefficient group")


def det_integers(M: GroupRingMatrix, t0) -> FKEstimate:
    """Determinant over Z via the symbolic polynomial and its roots."""
    _require_square(M)
    _require_positive(t0)
    _require_integers(M.group)
    return roots_estimate(M.determinant(), t0)


def roots_estimate(D: GroupRingElement, t0) -> FKEstimate:
    """The roots backend on a determinant already expanded over Z.

    ``D`` is det(M) exact in t, as ``GroupRingMatrix.determinant`` returns
    it; only t = t0 is substituted here, so one D serves every t.
    """
    t0 = _require_positive(t0)
    _require_integers(D.group)
    P = D.coefficients_at(t0)
    diagnostics: dict = {"degree_span": [min(P), max(P)] if P else None}
    if not P:
        diagnostics["non_injective"] = True
        return FKEstimate(0.0, 0.0, "roots", diagnostics)
    value, err = mahler_univariate(P)
    return FKEstimate(value, err, "roots", diagnostics)


# --- quadrature backend (free abelian) ---------------------------------------


def _drop_unused_axes(P: dict[tuple, Fraction]) -> tuple[dict[tuple, Fraction], int]:
    """Project exponent tuples onto the coordinates that actually vary.

    Every dropped coordinate is 0 in every key, so no two keys meet.
    """
    d = len(next(iter(P)))
    used = [ax for ax in range(d) if any(k[ax] for k in P)]
    return {tuple(k[ax] for ax in used): c for k, c in P.items()}, len(used)


_QUAD_BLOCK = 2**15  # grid points evaluated per matrix product


def _log_abs_mean(P: dict[tuple, Fraction], d: int, n_grid: int) -> float:
    """Mean of log|P| over the midpoint tensor grid.

    The coefficients go into a dense array over the exponent box, so the
    result depends on the polynomial alone, not on its dict order.  Axes
    d-1, ..., 1 are contracted against per-axis phase tables
    W[k, j] = exp(i k theta_j), leaving T[k0, point of the other axes].
    Real coefficients give |P(-theta)| = |P(theta)|, and j -> n-1-j maps
    the midpoint grid to its negative, so only axis-0 rows j < n/2 are
    evaluated and counted twice (the middle row of an odd grid is its own
    mirror and counts once).  Exact zeros count as log 1e-300.
    """
    lo = [min(k[a] for k in P) for a in range(d)]
    hi = [max(k[a] for k in P) for a in range(d)]
    C = np.zeros([h - l + 1 for l, h in zip(lo, hi)])
    for k, c in P.items():
        C[tuple(k[a] - lo[a] for a in range(d))] = float(c)
    theta = 2.0 * np.pi * (np.arange(n_grid) + 0.5) / n_grid
    W = [np.exp(1j * np.outer(np.arange(lo[a], hi[a] + 1), theta)) for a in range(d)]
    T = C
    for a in range(d - 1, 0, -1):
        T = np.tensordot(T, W[a], axes=([a], [0]))
    T = T.reshape(C.shape[0], -1)
    half = n_grid // 2
    rows = [(W[0][:, :half].T, 2.0)]
    if n_grid % 2:
        rows.append((W[0][:, half : half + 1].T, 1.0))
    total = 0.0
    for W0, weight in rows:
        step = max(1, _QUAD_BLOCK // W0.shape[0])
        for start in range(0, T.shape[1], step):
            A = np.abs(W0 @ T[:, start : start + step])
            np.maximum(A, 1e-300, out=A)
            np.log(A, out=A)
            total += weight * float(A.sum())
    return total / float(n_grid**d)


def _require_free_abelian(group, grid: int) -> None:
    if not isinstance(group, FreeAbelian):
        raise ValueError("det_free_abelian needs a FreeAbelian coefficient group")
    if grid < 64:
        raise ValueError("grid must be at least 64")


def det_free_abelian(M: GroupRingMatrix, t0, grid: int = 128) -> FKEstimate:
    """Determinant over Z^d: the Mahler measure of the determinant polynomial."""
    _require_square(M)
    _require_positive(t0)
    _require_free_abelian(M.group, grid)
    return quadrature_estimate(M.determinant(), t0, grid)


def quadrature_estimate(D: GroupRingElement, t0, grid: int = 128) -> FKEstimate:
    """The quadrature backend on a determinant already expanded over Z^d.

    ``D`` is det(M) exact in t; only t = t0 is substituted here, so one D
    serves every t.
    """
    t0 = _require_positive(t0)
    _require_free_abelian(D.group, grid)
    P0 = D.coefficients_at(t0)
    if not P0:
        return FKEstimate(0.0, 0.0, "quadrature", {"non_injective": True})
    P, d = _drop_unused_axes(P0)
    if d <= 1:
        uni = {(k[0] if k else 0): c for k, c in P.items()}
        value, err = mahler_univariate(uni)
        return FKEstimate(value, err, "roots", {"reduced_to_univariate": True})
    n = grid
    while (4 * n) ** d > 2**26:  # keep even the doubled grids affordable
        n //= 2
    if n < 16:
        raise ValueError(
            f"torus dimension {d} needs a grid below 16 to keep (4n)^{d} "
            "within the 2^26-point quadrature budget"
        )
    logs = [float(_log_abs_mean(P, d, m)) for m in (n, 2 * n, 4 * n)]
    e1, e2 = logs[1] - logs[0], logs[2] - logs[1]
    val_log, err_log = logs[2], abs(e2) * 2.0 + 1e-13
    if e2 != 0.0 and abs(e1) > 1.5 * abs(e2):
        p = float(np.log2(abs(e1 / e2)))
        val_log = logs[2] + e2 / (2.0**p - 1.0)
    value = exp(val_log)
    err = value * (exp(err_log) - 1.0) + 1e-12
    return FKEstimate(
        value,
        err,
        "quadrature",
        {"torus_dim": d, "grids": [n, 2 * n, 4 * n], "refinement_diffs": [e1, e2]},
    )


# --- subgroup rewriting (Stallings folding) ----------------------------------


def fold_subgroup_basis(words: Sequence[FreeWord]) -> tuple[int, list[FreeWord]]:
    """Rewrite words over a free basis of the subgroup they generate.

    Builds a bouquet of loops labeled by the words, folds it into an
    immersion, extracts a spanning tree, and reads each word off as a
    product of the non-tree (basis) edges along its path.  Returns
    (rank, rewritten words); the rank is 1 when the subgroup is trivial
    so callers always get a usable ambient group.
    """
    edges: list[tuple[int, int, int]] = []  # (u, g, v): u --g--> v, g > 0
    n_vertices = 1
    for w in words:
        cur = 0
        letters = list(w.letters())
        for idx, (g, s) in enumerate(letters):
            nxt = 0 if idx == len(letters) - 1 else n_vertices
            if nxt != 0:
                n_vertices += 1
            edges.append((cur, g, nxt) if s > 0 else (nxt, g, cur))
            cur = nxt

    parent = list(range(n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # fold: no vertex may carry two distinct out-edges (or in-edges) with
    # one label; rescan after every merge since earlier bookkeeping staled
    changed = True
    while changed:
        changed = False
        out_seen: dict[tuple[int, int], int] = {}
        in_seen: dict[tuple[int, int], int] = {}
        for u, g, v in edges:
            u, v = find(u), find(v)
            prev = out_seen.get((u, g))
            if prev is not None and prev != v:
                parent[find(v)] = find(prev)
                changed = True
                break
            out_seen[(u, g)] = v
            prev = in_seen.get((v, g))
            if prev is not None and prev != u:
                parent[find(u)] = find(prev)
                changed = True
                break
            in_seen[(v, g)] = u

    fedges = {(find(u), g, find(v)) for (u, g, v) in edges}
    adj: dict[int, dict[int, int]] = {}
    for u, g, v in fedges:
        adj.setdefault(u, {})[g] = v
        adj.setdefault(v, {})[-g] = u

    base = find(0)
    tree_edges: set[tuple[int, int, int]] = set()
    visited = {base}
    order = [base]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for lab in sorted(adj.get(v, {}), key=lambda x: (abs(x), x < 0)):
            t = adj[v][lab]
            if t not in visited:
                visited.add(t)
                order.append(t)
                tree_edges.add((v, lab, t) if lab > 0 else (t, -lab, v))

    basis_index: dict[tuple[int, int, int], int] = {}
    for u, g, v in sorted(fedges):
        if (u, g, v) not in tree_edges:
            basis_index[(u, g, v)] = len(basis_index) + 1

    rank = max(len(basis_index), 1)
    rewritten = []
    for w in words:
        cur = base
        out: list[tuple[int, int]] = []
        for g, s in w.letters():
            nxt = adj[cur][g * s]
            key = (cur, g, nxt) if s > 0 else (nxt, g, cur)
            idx = basis_index.get(key)
            if idx is not None:
                out.append((idx, s))
            cur = nxt
        if cur != base:
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


_PIECE = 1 << 14  # pairs per walk update, so its scratch product (128 kB) stays in cache


def _split(run, n: int):
    """A run cut into consecutive runs of at most n pairs."""
    s0, t0, count, ss, ts = run
    for a in range(0, count, n):
        yield (s0 + ss * a, t0 + ts * a, min(n, count - a), ss, ts)


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
    entries: list[list[dict[FreeWord, float]]],
    rank: int,
    series_len: int,
    state_budget: int,
) -> _Moments:
    """Walk tau_k = tr((Id - B/c0)^k), k = 1..series_len, for a positive B.

    ``entries`` holds B as an m x m matrix of {word: coefficient} sums over
    Free(rank); B must be self-adjoint (entry (j, i) at w^-1 equals entry
    (i, j) at w), else ``ValueError``.  The walk runs on the largest ball
    the state budget allows, where T = Id - B/c0 truncates to the
    self-adjoint P T P, so with v_j = (P T P)^j e the traces are
    tau_2j = <v_j, v_j> and tau_2j+1 = <v_j, v_j+1>: ceil(K/2) steps give
    K traces.  Each word acts through its runs in the suffix-ordered ball
    (:meth:`FreeBall.runs`), so a step is a few slice updates per term.
    The radius-(R-1) ball that measures the truncation is the index
    prefix [0, offsets[R]) of the big one, walked with the same runs
    clipped to it.  Terms are walked in word order, so equal matrices give
    bit-identical traces however their entries were assembled.
    """
    entries = [
        [dict(sorted(e.items(), key=lambda wc: _word_key(wc[0]))) for e in row]
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
                elif _word_key(w) < _word_key(winv):
                    terms.append((i, j, -cw / c, w))
    return diag, terms


def _half_walk(diag: np.ndarray, steps: list, size: int, series_len: int) -> np.ndarray:
    """tau_1..tau_K of the self-adjoint walk on ``size`` nodes, in ceil(K/2) steps.

    Each step entry (i, j, coefficient, runs) adds both its term and the
    mirror term.  The walk alternates between two buffers, so each run is
    turned once into basic-slice views of both, and a step is a list of
    y += c x updates on those views.  Long runs are cut into pieces whose
    product c x fits a cache-sized scratch array.
    """
    m = len(diag)
    n_steps = (series_len + 1) // 2
    taus = np.zeros(2 * n_steps)
    bufs = (np.empty((m, size)), np.empty((m, size)))
    scratch = np.empty(_PIECE)
    pieces = [
        (i, j, cw, _run_slices(p), scratch[: p[2]])
        for i, j, cw, runs in steps
        for r in runs
        for p in _split(r, _PIECE)
    ]
    # updates[k % 2] is step k, which reads bufs[k % 2] and writes the other
    updates = []
    for v, nv in (bufs, bufs[::-1]):
        ups = []
        for i, j, cw, (src, tgt), tmp in pieces:
            ups.append((cw, v[j][src], nv[i][tgt], tmp))
            ups.append((cw, v[i][tgt], nv[j][src], tmp))
        updates.append(ups)
    for comp in range(m):
        bufs[0].fill(0.0)
        bufs[0][comp, 0] = 1.0
        for k in range(n_steps):
            v, nv = bufs[k % 2], bufs[1 - k % 2]
            np.multiply(diag[:, None], v, out=nv)
            for cw, x, y, tmp in updates[k % 2]:
                np.multiply(x, cw, out=tmp)
                np.add(y, tmp, out=y)
            taus[2 * k] += np.vdot(v, nv)
            taus[2 * k + 1] += np.vdot(nv, nv)
    return taus[:series_len]


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


def _word_key(w: FreeWord):
    return (w.length(), w.syllables)


def _sorted_support(words) -> list[FreeWord]:
    return sorted(set(words), key=_word_key)


def _rewrite_entries(entries):
    """Jointly rewrite all entry supports over a basis of their subgroup."""
    words = _sorted_support(w for row in entries for e in row for w in e)
    if not words:
        return 1, [[{} for e in row] for row in entries]
    rank, rewritten = fold_subgroup_basis(words)
    table = dict(zip(words, rewritten))
    flat = [
        [{table[w]: float(c) for w, c in e.items()} for e in row] for row in entries
    ]
    return rank, flat


def _series_to_estimate(res: _SeriesResult, method: str) -> FKEstimate:
    value = exp(0.5 * res.log_det)
    err = value * (exp(0.5 * res.error_log) - 1.0)
    return FKEstimate(value, err, method, res.diagnostics)


def det_free_group(
    M: GroupRingMatrix,
    t0,
    series_len: int = 30,
    accel: bool = True,
    state_budget: int = 1_200_000,
) -> FKEstimate:
    """Regular determinant over a free group via the von Neumann trace series.

    1x1 operators are rewritten over a free basis of the subgroup their
    support generates, which shrinks both the ambient rank and the word
    lengths; when that subgroup has rank 1 the support is a Laurent
    polynomial in its generator, and the roots backend's Mahler measure
    is exact.  A 2x2 matrix with a one-term (hence invertible) entry is
    reduced to the 1x1 case through det [[A,B],[C,D]] = det(B)
    det(A B^-1 D - C); larger matrices run the series directly and flag
    that injectivity was assumed.
    """
    _require_square(M)
    t0 = _require_positive(t0)
    if not isinstance(M.group, Free):
        raise ValueError("det_free_group needs a Free coefficient group")
    if series_len < 8:
        raise ValueError("series_len must be at least 8")
    m = M.rows
    if m == 0:
        return FKEstimate(1.0, 0.0, "trace_series", {"empty": True})
    support = [[e.coefficients_at(t0) for e in row] for row in M.entries]
    if all(not e for row in support for e in row):
        return FKEstimate(0.0, 0.0, "trace_series", {"non_injective": True})

    if m == 1:
        return _det_free_single(support[0][0], series_len, accel, state_budget)

    if m == 2:
        reduced = _two_by_two_reduce(support)
        if reduced is not None:
            factor, schur = reduced
            est = _det_free_single(schur, series_len, accel, state_budget)
            est.value *= factor
            if est.error_bound is not None:
                est.error_bound *= factor
            est.diagnostics["two_by_two_factor"] = factor
            return est

    rank, flat = _rewrite_entries(_walk_matrix(support))
    mom = _trace_moments(flat, rank, series_len, state_budget)
    res = _series_from_moments(mom, accel)
    res.diagnostics["injectivity_assumed"] = True
    return _series_to_estimate(res, "trace_series")


def _det_free_single(
    e: dict[FreeWord, Fraction], series_len: int, accel: bool, state_budget: int
) -> FKEstimate:
    if not e:
        return FKEstimate(0.0, 0.0, "trace_series", {"non_injective": True})
    # a left unitary factor is determinant-neutral and invisible to A*A, so
    # rebase the support at a shortest word before extracting the subgroup
    w0inv = min(e, key=_word_key).inverse()
    shifted = {w0inv * w: c for w, c in e.items()}
    words = _sorted_support(shifted)
    rank, rewritten = fold_subgroup_basis(words)
    a = {rw: shifted[w] for w, rw in zip(words, rewritten)}
    if rank == 1:  # a Laurent polynomial in the one generator: exact roots
        uni = {sum(x for _, x in w.syllables): c for w, c in a.items()}
        value, err = mahler_univariate(uni)
        diagnostics = {"subgroup_rank": 1, "reduced_to_univariate": True}
        return FKEstimate(value, err, "roots", diagnostics)
    b: dict[FreeWord, Fraction] = {}  # A* A over the subgroup basis
    _flat_addmul(b, {w.inverse(): c for w, c in a.items()}, a, operator.mul)
    bf = {k: float(v) for k, v in b.items()}
    mom = _trace_moments([[bf]], rank, series_len, state_budget)
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
    M: GroupRingMatrix,
    t0,
    series_len: int = 60,
    state_budget: int = 400_000,
) -> FKEstimate:
    """sqrt(det(A* A + eps Id)) extrapolated along a decreasing eps sequence.

    Each shifted operator has spectrum inside [eps, c], so its inner trace
    series converges geometrically; all of them rescale the traces of one
    walk over A* A (see :func:`_series_from_moments`).  The eps limit is
    then taken by polynomial extrapolation, in both eps and sqrt(eps),
    keeping whichever settles better.  Supported over Z and over free
    groups (Z embeds as the rank-one free group for the walk).
    """
    _require_square(M)
    t0 = _require_positive(t0)
    m = M.rows
    if m == 0:
        return FKEstimate(1.0, 0.0, "epsilon_reg", {"empty": True})
    support_q = [[e.coefficients_at(t0) for e in row] for row in M.entries]
    if all(not e for row in support_q for e in row):
        return FKEstimate(0.0, 0.0, "epsilon_reg", {"non_injective": True})

    group = M.group
    if isinstance(group, Free):
        as_words = support_q
    elif isinstance(group, Integers):
        as_words = [
            [
                {make_word(1, ((1, k),)): c for k, c in e.items()}
                for e in row
            ]
            for row in support_q
        ]
    else:
        raise ValueError(
            "epsilon regularization runs over Z or free groups; use "
            "det_free_abelian for Z^d"
        )

    rank, flat = _rewrite_entries(_walk_matrix(as_words))
    epsilons = [_norm_bound(flat) * 0.15 / (4.0**i) for i in range(6)]

    mom = _trace_moments(flat, rank, series_len, state_budget)
    series = [_series_from_moments(mom, True, eps) for eps in epsilons]
    logs = [res.log_det for res in series]
    series_err = max(res.error_log for res in series)

    v_lin, e_lin = _neville_to_zero(epsilons, logs)
    v_sqrt, e_sqrt = _neville_to_zero([sqrt(x) for x in epsilons], logs)
    if e_sqrt <= e_lin:
        best, err_log, variable = v_sqrt, e_sqrt, "sqrt(eps)"
    else:
        best, err_log, variable = v_lin, e_lin, "eps"
    err_log = 2.0 * err_log + series_err + 1e-12
    value = exp(0.5 * best)
    err = value * (exp(0.5 * err_log) - 1.0)
    return FKEstimate(
        value,
        err,
        "epsilon_reg",
        {
            "epsilons": epsilons,
            "log_dets": logs,
            "extrapolation_variable": variable,
            "rank": rank,
            "radius": mom.radius,
            "series_len": series_len,
            # the smallest eps scales the walked truncation delta the least
            "truncation_delta": series[-1].diagnostics["truncation_delta"],
            "exact_moments": mom.exact_moments,
        },
    )
