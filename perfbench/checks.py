"""References the benchmark checks results against.

Two kinds: closed forms from the literature or from the Alexander
polynomial, computed here with numpy only, and golden values for results
without a closed form, read from ``references.json`` next to this file.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from metrics import interval_hits

# L(chi_-3, 2); Smyth (1981): m(1 + x + y) = (3 sqrt(3) / 4 pi) L(chi_-3, 2)
L_CHI3_2 = 0.7813024128964862968671871
ZETA3 = 1.2020569031595942853997381

# exp of logarithmic Mahler measures, the form the library reports
BOYD_1XY = math.exp(3.0 * math.sqrt(3.0) / (4.0 * math.pi) * L_CHI3_2)  # 1.3813564445...
SMYTH_1XYZ = math.exp(7.0 * ZETA3 / (2.0 * math.pi**2))  # 1.5315470966...
ID_STABILIZED = 2.0 / math.sqrt(3.0)  # F(sigma_1^-1 sigma_2) over the identity family

TREFOIL = {0: 1, 1: -1, 2: 1}  # s^2 - s + 1
FIGURE_EIGHT = {0: 1, 1: -3, 2: 1}  # s^2 - 3s + 1

# knots up to seven crossings: a braid word and the Alexander polynomial
# (Rolfsen's table; braid words as in KnotInfo)
KNOT_TABLE = {
    "3_1": ([1, 1, 1], TREFOIL),
    "4_1": ([1, -2, 1, -2], FIGURE_EIGHT),
    "5_1": ([1, 1, 1, 1, 1], {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}),
    "5_2": ([1, 1, 1, 2, -1, 2], {0: 2, 1: -3, 2: 2}),
    "6_1": ([1, 1, 2, -1, -3, 2, -3], {0: 2, 1: -5, 2: 2}),
    "6_2": ([1, 1, 1, -2, 1, -2], {0: 1, 1: -3, 2: 3, 3: -3, 4: 1}),
    "6_3": ([1, 1, -2, 1, -2, -2], {0: 1, 1: -3, 2: 5, 3: -3, 4: 1}),
    "7_1": ([1] * 7, {0: 1, 1: -1, 2: 1, 3: -1, 4: 1, 5: -1, 6: 1}),
}

GOLDEN = {
    k: v for k, v in json.loads(
        (Path(__file__).with_name("references.json")).read_text()
    ).items() if not k.startswith("_")
}


def ref(value: float, tol: float, source: str) -> dict:
    return {"value": value, "tol": tol, "source": source}


def golden(key: str) -> dict:
    g = GOLDEN[key]
    return ref(g["value"], g["tol"], f"golden {key}")


# --- exact polynomial arithmetic over Q, ascending coefficient lists ---------


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _divmod(a: list, b: list) -> tuple[list, list]:
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(_trim(a)) >= len(b):
        a = _trim(a)
        k = len(a) - len(b)
        c = Fraction(a[-1]) / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
    return _trim(q), _trim(a)


def _gcd(a: list, b: list) -> list:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _deriv(p: list) -> list:
    return _trim([k * c for k, c in enumerate(p)][1:])


def squarefree_parts(p: list) -> list[tuple[list, int]]:
    """Yun's algorithm: p = c * prod f_i^i with each f_i square-free."""
    p = [Fraction(c) for c in _trim(p)]
    a = _gcd(p, _deriv(p))
    b, c = _divmod(p, a)[0], _divmod(_deriv(p), a)[0]
    d = _trim([x - y for x, y in zip(c + [0] * len(b), _deriv(b) + [0] * len(c))])
    out, i = [], 1
    while len(b) > 1:
        a = _gcd(b, d) if d else b
        if len(a) > 1:
            out.append((a, i))
        b = _divmod(b, a)[0]
        c = _divmod(d, a)[0] if d else []
        d = _trim([x - y for x, y in zip(c + [0] * len(b), _deriv(b) + [0] * len(c))])
        i += 1
    return out


def has_repeated_root(poly: dict[int, int], n: int) -> bool:
    """True when Delta(z) (1 + z + ... + z^(n-1)) has a repeated root."""
    delta = [Fraction(poly.get(k, 0)) for k in range(max(poly) + 1)]
    p = [Fraction(0)] * (len(delta) + n - 1)
    for i, a in enumerate(delta):
        for j in range(n):
            p[i + j] += a
    return len(_gcd(p, _deriv(p))) > 1


def mahler_at(poly: dict[int, int], t0: float = 1.0) -> dict:
    """F of a phi knot closure at t0, from its Alexander polynomial.

    For the total-winding family det(Burau - Id) at t0 is, up to a unit,
    Delta(t0 z) (1 + t0 z + ... + (t0 z)^(n-1)), so after dividing by
    max(1, t0)^n one gets |lead| prod max(t0, |r|) / max(1, t0) over the
    roots r of Delta, up to an integer power of t0.  Delta is first split
    into square-free parts in exact arithmetic, so every root handed to
    numpy is simple; the tolerance is the disagreement of two root solvers
    plus a rounding allowance.
    """
    hi = max(poly)
    lead = abs(poly[hi])
    value, spread = lead / max(1.0, t0), 0.0
    for f, mult in squarefree_parts([poly.get(k, 0) for k in range(hi + 1)]):
        desc = np.array([float(c) for c in reversed(f)])
        vals = [float(np.prod(np.maximum(t0, np.abs(roots)))) ** mult
                for roots in (np.roots(desc), 1.0 / np.roots(desc[::-1]))]
        value *= vals[0]
        spread += abs(vals[0] - vals[1]) / vals[0]
    tol = value * (spread + 1e-12 * (hi + 1) ** 2)
    return ref(value, tol, "mahler of alexander")


def alexander_ok(poly: dict[int, int]) -> str | None:
    """Properties every Alexander polynomial of a knot has; None when met."""
    deg = max(poly)
    if min(poly) != 0 or poly[deg] <= 0:
        return "not normalized to lowest degree 0 and positive lead"
    if any(poly.get(k, 0) != poly.get(deg - k, 0) for k in range(deg + 1)):
        return "not palindromic"
    if abs(sum(poly.values())) != 1:
        return "Delta(1) is not +-1"
    return None


def check_value(value: float, bound: float | None, reference: dict, t0: float = 1.0) -> str | None:
    """None when value +- bound meets the reference, else the reason."""
    if interval_hits(value, bound, reference["value"], reference["tol"], t0):
        return None
    return (
        f"{value:.10g} +- {bound if bound is None else f'{bound:.3g}'} misses "
        f"{reference['value']:.10g} +- {reference['tol']:.3g} ({reference['source']})"
    )
