"""The exact square-free gate of the roots backend, and one root solve
read at several t, on random integer polynomials."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from l2burau.fkdet import (  # noqa: E402
    UnivariateRoots,
    _squarefree_mod_p,
    _squarefree_parts,
    mahler_univariate,
)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ascending integer coefficients with a nonzero top one
def polys(min_degree: int, max_degree: int):
    return st.lists(
        st.integers(-9, 9), min_size=min_degree + 1, max_size=max_degree + 1
    ).filter(lambda p: p[-1] != 0)


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(f=polys(1, 4), g=polys(0, 3))
def test_gate_rejects_a_square(f, g):
    assert not _squarefree_mod_p(poly_mul(poly_mul(f, f), g))


@SETTINGS
@given(p=polys(1, 6))
def test_gate_accepts_only_square_free(p):
    # a constant gcd modulo the prime is a proof: Yun finds one simple part
    if _squarefree_mod_p(p):
        lead = Fraction(p[-1])
        assert _squarefree_parts([Fraction(c) for c in p]) == [([c / lead for c in p], 1)]


@SETTINGS
@given(
    f=polys(1, 3),
    m=st.integers(1, 4),
    t=st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(5, 2)]),
)
def test_one_solve_reads_powers_at_every_t(f, m, t):
    # .at(t) on f^m is M(f(t .))^m, with M(f(t .)) found by substituting t
    # before the roots are found
    fm = [1]
    for _ in range(m):
        fm = poly_mul(fm, f)
    value, err = UnivariateRoots(dict(enumerate(fm))).at(t)
    base, base_err = mahler_univariate({k: c * t**k for k, c in enumerate(f)})
    assert abs(value - base**m) <= err + m * base ** (m - 1) * base_err
