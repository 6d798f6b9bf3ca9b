"""Formal sums over a coefficient group with exact Laurent-in-t coefficients.

An element sums terms c(t) * g where c is a Laurent polynomial in the
positive real parameter t with rational coefficients and g belongs to one
of three computable coefficient groups: the integers, a free abelian group,
or a free group.  Keeping t symbolic makes the Markov-move identities exact;
numbers enter only when a determinant backend substitutes a value for t.
The pipeline hands flat {(group element, t exponent): coefficient} dicts
from the Burau fold through the determinant to all four backends (see the
flat kernel below); elements and matrices are a codec, for ``burau``
output, JSON and the benchmark, with a difference and a determinant as
their only arithmetic.

Group elements are stored as canonical reduced representatives (an int, an
integer tuple, or a reduced FreeWord) and used directly as mapping keys, so
equality of elements and matrices is structural and decidable.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .freegroup import FreeWord


RationalLike = Fraction | int


class TPoly:
    """Finitely supported map exponent -> rational: sum of c_k t^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[int(k)] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def _wrap(coeffs: dict) -> "TPoly":
        """A TPoly around a dict that is already clean: Fractions, no zeros."""
        res = TPoly.__new__(TPoly)
        res.coeffs = coeffs
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TPoly({self.coeffs!r})"

    def render(self) -> str:
        """Sum of (c)t^k monomials; t^0 and unit coefficients are dropped."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"t^{k}")
            else:
                parts.append(f"({c})t^{k}")
        return " + ".join(parts)


# --- Coefficient groups ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Integers:
    """The infinite cyclic group; elements are plain integers."""

    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def is_identity(self, a) -> bool:
        return a == 0

    def render(self, a) -> str:
        if a == 0:
            return "e"
        return "z" if a == 1 else f"z^{a}"

    def sort_key(self, a):
        return (abs(a), a)


@dataclasses.dataclass(frozen=True)
class FreeAbelian:
    """Z^d; elements are integer tuples of length d."""

    d: int

    def identity(self):
        return (0,) * self.d

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def is_identity(self, a) -> bool:
        return all(x == 0 for x in a)

    def render(self, a) -> str:
        parts = []
        for i, e in enumerate(a, 1):
            if e == 1:
                parts.append(f"z{i}")
            elif e:
                parts.append(f"z{i}^{e}")
        return " ".join(parts) if parts else "e"

    def sort_key(self, a):
        return (sum(abs(x) for x in a), a)


@dataclasses.dataclass(frozen=True)
class Free:
    """Free group of given rank; elements are reduced FreeWords."""

    rank: int

    def identity(self):
        return FreeWord.identity(self.rank)

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def is_identity(self, a) -> bool:
        return a.is_identity()

    def render(self, a, letter: str = "g") -> str:
        return a.render(letter)

    @staticmethod
    def sort_key(a):
        return (a.length(), a.syllables)


CoefficientGroup = Integers | FreeAbelian | Free


def is_commutative(group: CoefficientGroup) -> bool:
    return not isinstance(group, Free) or group.rank <= 1


# --- Group-ring elements --------------------------------------------------


class GroupRingElement:
    """Finite formal sum of TPoly coefficients over group elements."""

    __slots__ = ("group", "terms")

    def __init__(self, group: CoefficientGroup, terms: Mapping | None = None):
        self.group = group
        clean = {}
        if terms:
            for g, c in terms.items():
                if not c.is_zero():
                    clean[g] = c
        self.terms = clean

    # construction helpers

    @staticmethod
    def zero(group: CoefficientGroup) -> "GroupRingElement":
        return GroupRingElement(group)

    @staticmethod
    def one(group: CoefficientGroup) -> "GroupRingElement":
        return GroupRingElement(group, {group.identity(): TPoly({0: 1})})

    def is_zero(self) -> bool:
        return not self.terms

    def _plus(self, other: "GroupRingElement", sign: int) -> "GroupRingElement":
        """self + sign * other, the coefficients of each group element
        added in the kernel."""
        out = dict(self.terms)
        for g, c in other.terms.items():
            acc = dict(out[g].coeffs) if g in out else {}
            _flat_add(acc, c.coeffs, sign)
            out[g] = TPoly._wrap(acc)
        return GroupRingElement(self.group, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self._plus(other, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"<GroupRingElement {self.render()}>"

    def _labelled(self, letter: str) -> list:
        """(rendered group element, coefficient) pairs in display order."""
        group = self.group
        items = sorted(self.terms.items(), key=lambda kv: group.sort_key(kv[0]))
        if isinstance(group, Free):
            return [(group.render(g, letter), c) for g, c in items]
        return [(group.render(g), c) for g, c in items]

    def render(self, letter: str = "g") -> str:
        if not self.terms:
            return "0"
        parts = []
        for gs, c in self._labelled(letter):
            cs = c.render()
            if " + " in cs:  # parenthesize only genuine sums
                cs = f"({cs})"
            parts.append(f"{cs} [{gs}]")
        return " + ".join(parts)

    def to_json_obj(self, letter: str = "g") -> list:
        return [
            {"elem": gs, "coeffs": {str(k): str(v) for k, v in c.coeffs.items()}}
            for gs, c in self._labelled(letter)
        ]


# --- Flat kernel ------------------------------------------------------------
#
# Every exact sum and product in the package runs here: the fold of the
# Burau assembly, the Laplace determinant, the element difference, and the
# free-group operators of the determinant backends.  Operands are flat
# {key: coefficient} dicts; _flat_addmul adds a product of two of them to
# an accumulator, and _flat_add adds one.  A key stands for a pair (group
# element, t exponent), or for a plain exponent or group element where
# only one of them varies.  A coefficient stays a Python int while its
# denominator is 1, so nearly every product is a plain integer multiply.
# Zero coefficients are never stored, so an empty dict is the zero element.
#
# The kernel's two sums of products of group-ring entries, the Burau fold
# (_fold_columns) and the determinant (_laplace), hold their entries in
# one of two encodings:
#
# * the integer encoding, a _LineMatrix, over a commutative group when
#   every coefficient is an integer and every exponent vector (group
#   coordinates, t exponent) is a multiple k u of one primitive vector u
#   (_line_steps, the one line test): phi, constant matrices and most
#   rank <= 1 targets.  An entry is then a Laurent polynomial in X = u,
#   held as one Python int: the polynomial, divided by a power of X kept
#   beside it, evaluated at X = 2^b (Kronecker substitution), so negative
#   exponents never enter an int.  Sums and products are int sums and
#   products, and the coefficients come back as balanced base-2^b digits
#   (_digits): b = bitlen(B) + 1 for a bound B on every coefficient read
#   back holds each as one digit, the extra bit for its sign, and no digit
#   carries.  The fold is the one producer of a _LineMatrix: it finds the
#   line of its generator columns and takes B from its own l1 recursion.
#   The determinant packs its rows once, at the width of Hadamard's bound
#   (_det_pack), from per-entry (lowest power, digits) pairs, read off a
#   _LineMatrix's ints or straight off flat rows that lie on a line
#   (_line_entries).
# * the dict encoding (_kernel), for everything else (Z^d at rank >= 2,
#   free groups, rational coefficients): the flat dicts themselves.  Over
#   a commutative group a key is one int whose balanced digits in an odd
#   base are the group coordinates and then the t exponent, so the key
#   product is the int sum; over a free group of rank >= 2 a key stays the
#   (element, exponent) pair.  A dense box over several variables could be
#   far wider than the sparse support, so only a one-dimensional box is
#   ever packed into an int.
#
# _laplace takes a _LineMatrix as it is, or flat rows through
# _line_entries; under phi the fold's ints reach it as E = Burau - Id,
# formed on the ints, and only det(E) is decoded.  det(E) comes back as
# one flat dict, so the fold's entries reach every determinant backend,
# as E's rows or as det(E), without becoming GroupRingElements; they are
# decoded into flat rows only for ``burau`` output and the series and eps
# backends.  _at substitutes t = t0 into a flat dict;
# GroupRingMatrix.determinant is the one place a determinant is decoded
# into an element.


def _flat(e: GroupRingElement) -> dict:
    """{(group element, t exponent): coefficient} of one element."""
    return {
        (g, k): c.numerator if c.denominator == 1 else c
        for g, tp in e.terms.items()
        for k, c in tp.coeffs.items()
    }


def _unflat(group: CoefficientGroup, d: dict) -> GroupRingElement:
    """The element of a flat dict, its terms in the order of first appearance."""
    terms: dict = {}
    for (g, k), c in d.items():
        terms.setdefault(g, {})[k] = Fraction(c)
    return GroupRingElement(group, {g: TPoly._wrap(cs) for g, cs in terms.items()})


def _require_positive(t0) -> Fraction:
    t0 = Fraction(t0)
    if t0 <= 0:
        raise ValueError("t must be positive")
    return t0


def _at(d: dict, t0: RationalLike) -> dict:
    """{group element: Fraction} of a flat dict after substituting t = t0 > 0,
    elements in the order of first appearance.  The values are Fractions
    even where every coefficient is an int, so callers divide exactly."""
    t0 = _require_positive(t0)
    out: dict = {}
    for (g, k), c in d.items():
        out[g] = out.get(g, 0) + c * t0**k
    return {g: v for g, v in out.items() if v}


def _flat_add(acc: dict, a: dict, sign: int = 1) -> None:
    """acc += sign * a."""
    get = acc.get
    for key, c in a.items():
        s = get(key, 0) + (c if sign > 0 else -c)
        if s:
            acc[key] = s
        else:
            del acc[key]


def _flat_addmul(acc: dict, a: dict, b: dict, mul, sign: int = 1) -> None:
    """acc += sign * a * b, where the key of a term product is mul(key_a, key_b)."""
    get = acc.get
    for k1, c1 in a.items():
        if sign < 0:
            c1 = -c1
        for k2, c2 in b.items():
            key = mul(k1, k2)
            s = get(key, 0) + c1 * c2
            if s:
                acc[key] = s
            else:
                del acc[key]


def _coords(group: CoefficientGroup, g) -> tuple:
    """A commutative group element as an integer vector; the group law is +."""
    if isinstance(group, Integers):
        return (g,)
    if isinstance(group, FreeAbelian):
        return g
    return (sum(e for _, e in g.syllables),)  # a power of the one generator


def _from_coords(group: CoefficientGroup, v: list):
    if isinstance(group, Integers):
        return v[0]
    if isinstance(group, FreeAbelian):
        return tuple(v)
    return FreeWord.gen(group.rank, 1, v[0])


class _DictRing:
    """Entries as flat dicts; the product of two keys is ``mul``, and
    ``unpack`` maps an accumulator's keys back to (element, exponent)
    pairs.  ``one`` is a single shared dict, so callers read it and never
    accumulate into it; ``addmul`` accumulates into a dict from ``zero()``."""

    zero = staticmethod(dict)

    def __init__(self, mul, one_key, unpack=None):
        self.mul, self.unpack = mul, unpack
        self.one = {one_key: 1}

    def addmul(self, acc: dict, a: dict, b: dict, sign: int = 1) -> dict:
        """acc + sign * a * b, accumulated in place."""
        _flat_addmul(acc, a, b, self.mul, sign)
        return acc

    def flat(self, acc: dict, offset: int) -> dict:
        unpack = self.unpack
        return acc if unpack is None else {unpack(k): c for k, c in acc.items()}


class _IntRing:
    """Entries as ints: a polynomial in X = the line's generator u,
    evaluated at X = 2^bits."""

    zero = staticmethod(int)
    one = 1

    def __init__(self, group: CoefficientGroup, u: list[int], bits: int):
        self.group, self.u, self.bits = group, u, bits
        self._keys: dict = {}  # k -> (group element, t exponent) of X^k

    @staticmethod
    def addmul(acc: int, a: int, b: int, sign: int = 1) -> int:
        return acc + a * b if sign > 0 else acc - a * b

    def flat(self, acc: int, offset: int) -> dict:
        """acc times X^offset as a flat dict."""
        keys, out = self._keys, {}
        skip, digits = _digits(acc, self.bits)
        for k, c in enumerate(digits, offset + skip):
            if c:
                key = keys.get(k)
                if key is None:
                    v = [k * x for x in self.u]
                    key = keys[k] = (_from_coords(self.group, v[:-1]), v[-1])
                out[key] = c
        return out


class _LineMatrix:
    """A square matrix in the integer encoding: entry (r, c) is ints[r][c]
    * X^offsets[c] in ``ring``, whose width holds every coefficient of the
    matrix and of the matrix minus the identity.  The Burau fold
    (:func:`_fold_columns`) is its one producer; :func:`_laplace` reads it
    without decoding an entry, and ``flat_rows`` decodes it for the
    callers that read flat rows."""

    __slots__ = ("ring", "ints", "offsets")

    def __init__(self, ring: _IntRing, ints: list[list[int]], offsets: list[int]):
        self.ring, self.ints, self.offsets = ring, ints, offsets

    def __len__(self) -> int:
        return len(self.ints)

    def flat_rows(self) -> list[list[dict]]:
        flat = self.ring.flat
        return [[flat(x, off) for x, off in zip(row, self.offsets)] for row in self.ints]

    def minus_identity(self) -> "_LineMatrix":
        """The matrix minus the identity, on the ints: a column with a
        positive offset is moved to offset 0 first, so that X^0 is one of
        its digits."""
        bits = self.ring.bits
        offsets = [min(off, 0) for off in self.offsets]
        ints = [
            [x << bits * (off - low) for x, off, low in zip(row, self.offsets, offsets)]
            for row in self.ints
        ]
        for i, row in enumerate(ints):
            row[i] -= 1 << bits * -offsets[i]
        return _LineMatrix(self.ring, ints, offsets)

    def det_rows(self) -> tuple[list[list[int]], int, _IntRing]:
        """The rows, shift and ring :func:`_laplace` expands: each entry's
        digits are read once and packed by :func:`_det_pack`."""
        bits = self.ring.bits
        entries = []
        for row in self.ints:
            read = [_digits(x, bits) for x in row]
            entries.append([(off + skip, ds) for off, (skip, ds) in zip(self.offsets, read)])
        return _det_pack(self.ring.group, self.ring.u, entries)


def _line_entries(group: CoefficientGroup, rows: list[list[dict]]):
    """(u, entries) for square flat rows whose group is commutative, whose
    coefficients are all ints and whose keys lie on one line
    (:func:`_line_steps`), None otherwise: entry (k, digits) is
    X^k sum_i digits[i] X^i, with k the entry's lowest power of X = u."""
    if not is_commutative(group) or any(
        type(c) is not int for row in rows for d in row for c in d.values()
    ):
        return None
    line = _line_steps(group, (key for row in rows for d in row for key in d))
    if line is None:
        return None
    u, steps = line

    def entry(d: dict) -> tuple[int, list[int]]:
        powers = {steps[key]: c for key, c in d.items()}
        low = min(powers, default=0)
        return low, [powers.get(k, 0) for k in range(low, max(powers, default=-1) + 1)]

    return u, [[entry(d) for d in row] for row in rows]


def _det_pack(group: CoefficientGroup, u: list[int], entries) -> tuple[list, int, _IntRing]:
    """The integer rows of a Laplace expansion, from entries (k, digits)
    meaning X^k sum_i digits[i] X^i: the digits are spaced to the width of
    :func:`_hadamard`, from the entries' l1 norms, and each row is divided
    by its lowest power; the shift is the sum of those powers."""
    norms = [[sum(map(abs, ds)) for _, ds in row] for row in entries]
    lows = [min((k for k, ds in row if ds), default=0) for row in entries]
    width = _hadamard(norms).bit_length() + 1
    rows = []
    for row, low in zip(entries, lows):
        packed = []
        for k, ds in row:
            acc = 0
            for d in reversed(ds):
                acc = (acc << width) + d
            packed.append(acc << width * (k - low) if acc else 0)
        rows.append(packed)
    return rows, sum(lows), _IntRing(group, u, width)


def _balanced_digits(x: int, bits: int) -> list[int]:
    """Digits d_i of x = sum d_i 2^(bits i), lowest first, with |d_i| <
    2^(bits-1), which makes them unique (the encoding's bound guarantees
    it), read by masks and shifts."""
    half, full = 1 << (bits - 1), 1 << bits
    mask = full - 1
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= full
        out.append(d)
        x = (x - d) >> bits
    return out


def _digits(x: int, bits: int) -> tuple[int, list[int]]:
    """(s, digits) with x = 2^(bits s) sum_i digits[i] 2^(bits i): the
    digits below the lowest set bit are zero, so they are skipped, not
    read, and the rest are read by :func:`_balanced_digits`."""
    skip = ((x & -x).bit_length() - 1) // bits if x else 0
    return skip, _balanced_digits(x >> bits * skip, bits)


def _line_steps(group: CoefficientGroup, keys) -> tuple[list[int], dict] | None:
    """(u, {key: k}) when the exponent vector (group coordinates, t
    exponent) of every (group element, t exponent) key is k * u for one
    primitive u whose first nonzero coordinate is positive; None
    otherwise.  Without a nonzero vector u is the zero vector."""
    dim = len(_coords(group, group.identity())) + 1
    u, pivot = [0] * dim, None
    steps: dict = {}
    for key in keys:
        if key in steps:
            continue
        v = [*_coords(group, key[0]), key[1]]
        if not any(v):
            s = 0
        else:
            if pivot is None:
                pivot = next(i for i, x in enumerate(v) if x)
                step = math.gcd(*v) * (1 if v[pivot] > 0 else -1)
                u = [x // step for x in v]
            s = v[pivot] // u[pivot]
            if v != [s * y for y in u]:
                return None
        steps[key] = s
    return u, steps


def _hadamard(norms: list[list[int]]) -> int:
    """Hadamard's bound on every coefficient of det(M), from the l1 norms
    of M's entries: on |X| = 1 an entry is at most its l1 norm in absolute
    value, so |det M| is at most the product over rows of the euclidean
    norms of their l1 norms, and over columns too, and a coefficient of a
    Laurent polynomial is at most its maximum on the circle (von zur
    Gathen and Gerhard, *Modern Computer Algebra*, ch. 16).  Never larger
    than the product over rows of (1 + the row's l1 norm), which bounds
    every sum of products that takes at most one term from each row."""
    by_rows = math.prod(sum(x * x for x in row) for row in norms)
    by_cols = math.prod(sum(x * x for x in col) for col in zip(*norms))
    return math.isqrt(min(by_rows, by_cols))


def _kernel(group: CoefficientGroup, rows: list[list[dict]]):
    """The dict encoding of a sum of products of flat entries: the rows,
    their keys in the ring's form, and the ring, with ``zero()``, ``one``,
    ``addmul(acc, a, b, sign)`` returning acc + sign * a * b, and
    ``flat(acc, offset)``, which turns acc back into a flat dict.

    Every term the caller builds must be a product of at most one entry
    term from each of ``rows`` (a row of a Laplace expansion, or the
    column of one braid letter).  Over a commutative group the keys are
    packed ints; over a free group of rank >= 2 they stay (element,
    exponent) pairs.
    """
    if not is_commutative(group):
        gmul = group.mul
        return rows, _DictRing(
            lambda a, b: (gmul(a[0], b[0]), a[1] + b[1]), (group.identity(), 0)
        )
    vrows = [
        [{(*_coords(group, g), k): c for (g, k), c in d.items()} for d in row] for row in rows
    ]
    # the sum over rows of each row's largest coordinate bounds every
    # coordinate a product can reach, so no digit of a key ever carries
    half = sum(max((abs(x) for d in row for v in d for x in v), default=0) for row in vrows)
    base = 2 * half + 1
    dim = len(_coords(group, group.identity())) + 1

    def pack(v) -> int:
        key = 0
        for x in reversed(v):
            key = key * base + x
        return key

    def unpack(key: int):
        v = []
        for _ in range(dim):
            x = key % base
            if x > half:
                x -= base
            v.append(x)
            key = (key - x) // base
        return _from_coords(group, v[:-1]), v[-1]

    packed = [[{pack(v): c for v, c in d.items()} for d in row] for row in vrows]
    return packed, _DictRing(operator.add, 0, unpack)


def _fold_columns(
    group: CoefficientGroup, m: int, letters: list[tuple[int, list[int], list[dict]]]
) -> _LineMatrix | list[list[dict]]:
    """The m x m identity composed with one matrix per letter that is the
    identity but for one column: letter (i, where, col) sets entry i of
    every row to sum_r col[r] * row[r] over the rows r in ``where``, each
    product taken col * row.  On the line a column object that repeats
    is converted once.

    Every column entry must be one term of coefficient +-1 (a Burau
    generator column), so an entry of the new column i has l1 norm at
    most sum_r norms[r], where norms[c] bounds the l1 norms of column c.
    When the columns' keys lie on one line (:func:`_line_steps`), a column
    entry is +-X^j, and the fold returns a :class:`_LineMatrix` whose
    digits hold +-(max(norms) + 1), a cap on every coefficient of the
    matrix and of the matrix minus the identity.  Column c is stored
    divided by X^offsets[c], the lowest power a letter's update can reach,
    and the update shifts each row[r] by the rest, with no multiply.
    Otherwise the fold runs in the dict encoding of :func:`_kernel` and
    returns rows of flat entries.
    """
    distinct = {id(col): (where, col) for _, where, col in letters}
    keys = (key for _, col in distinct.values() for d in col for key in d)
    line = _line_steps(group, keys) if is_commutative(group) else None
    if line is None:
        columns, ring = _kernel(group, [col for _, _, col in letters])
        addmul = ring.addmul
        rows = [[ring.one if r == c else ring.zero() for c in range(m)] for r in range(m)]
        for (i, where, _), col in zip(letters, columns):
            for row in rows:
                new = ring.zero()
                for r, cf in zip(where, col):
                    if row[r]:
                        new = addmul(new, cf, row[r])
                row[i] = new
        return [[ring.flat(d, 0) for d in row] for row in rows]
    u, steps = line
    norms = [1] * m
    for i, where, _ in letters:
        norms[i] = sum(norms[r] for r in where)
    bits = (max(norms, default=1) + 1).bit_length() + 1
    # each distinct column as (row, power j, sign of +-X^j)
    monomials = {
        key: [(r, steps[k], c > 0) for r, d in zip(where, col) for k, c in d.items()]
        for key, (where, col) in distinct.items()
    }
    rows = [[int(r == c) for c in range(m)] for r in range(m)]
    offsets = [0] * m
    for i, _, col in letters:
        terms = monomials[id(col)]
        low = min(offsets[r] + j for r, j, _ in terms)
        terms = [(r, bits * (offsets[r] + j - low), plus) for r, j, plus in terms]
        for row in rows:
            new = 0
            for r, s, plus in terms:
                x = row[r]
                if x:
                    new = new + (x << s) if plus else new - (x << s)
            row[i] = new
        offsets[i] = low
    return _LineMatrix(_IntRing(group, u, bits), rows, offsets)


def _laplace(group: CoefficientGroup, rows: list[list[dict]] | _LineMatrix) -> dict:
    """The determinant of a square matrix of flat entries, or of a
    :class:`_LineMatrix`, over a commutative group, exact in t, as a flat
    dict.

    Laplace expansion along rows, shared over column subsets: the minor
    on the last n - r rows and the columns outside a mask of r columns is
    computed once per mask, so an n x n matrix costs at most 2^n minors.
    The masks the expansion can reach (through nonzero entries only) are
    found top-down first; the minors are then filled bottom-up, level r
    from level r + 1, so only two adjacent levels are alive at a time.
    Exponential in n, fine for the small matrices here.

    Flat rows reach the int path only through :func:`_line_entries`.  On
    it each entry's digits, read once off the ints of a
    :class:`_LineMatrix` or off flat rows, are packed at bitlen(H) + 1 bits
    for Hadamard's bound H (:func:`_det_pack`), so a product-accumulate is
    one int multiply and add; otherwise the entries are flat dicts
    (:func:`_kernel`) multiplied term by term.  Only the final sum is
    turned back into a flat dict.
    """
    if not is_commutative(group):
        raise ValueError("symbolic determinant needs a commutative group")
    n, shift = len(rows), 0
    if isinstance(rows, _LineMatrix):
        rows, shift, ring = rows.det_rows()
    elif (line := _line_entries(group, rows)) is not None:
        rows, shift, ring = _det_pack(group, *line)
    else:
        rows, ring = _kernel(group, rows)
    addmul = ring.addmul
    levels = [{0}]  # levels[r]: the reachable masks of r columns
    for row in rows[:-1]:
        levels.append({
            mask | (1 << j)
            for mask in levels[-1]
            for j in range(n)
            if row[j] and not mask & (1 << j)
        })
    below = {(1 << n) - 1: ring.one}
    for r in range(n - 1, -1, -1):
        row, here = rows[r], {}
        for mask in levels[r]:
            acc = ring.zero()
            sign = 1
            for j in range(n):
                if mask & (1 << j):
                    continue
                if row[j]:
                    acc = addmul(acc, row[j], below[mask | (1 << j)], sign)
                sign = -sign
            here[mask] = acc
        below = here
    return ring.flat(below[0], shift)


# --- Matrices --------------------------------------------------------------


class GroupRingMatrix:
    """Rectangular matrix of GroupRingElements over one coefficient group."""

    __slots__ = ("group", "rows", "cols", "entries")

    def __init__(self, group, entries: Sequence[Sequence[GroupRingElement]]):
        self.group = group
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.group != group:
                    raise ValueError("mixed coefficient groups in matrix")

    @staticmethod
    def identity(group, m: int) -> "GroupRingMatrix":
        one = GroupRingElement.one(group)
        zero = GroupRingElement.zero(group)
        return GroupRingMatrix(
            group, [[one if i == j else zero for j in range(m)] for i in range(m)]
        )

    def __sub__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return GroupRingMatrix(
            self.group,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def determinant(self) -> GroupRingElement:
        """Exact symbolic determinant in t; commutative coefficient groups
        only.  The entries are flattened and expanded by :func:`_laplace`,
        the one determinant routine, whose flat result is decoded here and
        nowhere else."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        rows = [[_flat(e) for e in row] for row in self.entries]
        return _unflat(self.group, _laplace(self.group, rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingMatrix)
            and self.group == other.group
            and self.entries == other.entries
        )

    def render(self, letter: str = "g") -> str:
        lines = []
        for row in self.entries:
            lines.append("[ " + " | ".join(e.render(letter) for e in row) + " ]")
        return "\n".join(lines)

    def to_json_obj(self, letter: str = "g") -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [e.to_json_obj(letter) for e in row] for row in self.entries
            ],
        }

    def __repr__(self) -> str:
        return f"<GroupRingMatrix {self.rows}x{self.cols} over {self.group}>"


# --- Shared with the backends ------------------------------------------------
#
# What the pipeline and the CLI read without loading the numeric backends
# (and numpy with them): the one-variable coefficient lists of the
# Burau-Alexander division, and the limits on the backend options, which
# the CLI checks before any backend runs.


def _ascending(coeffs: dict[int, Fraction]) -> list[Fraction]:
    """Coefficients from the lowest power to the highest, gaps as zeros."""
    return [Fraction(coeffs.get(k, 0)) for k in range(min(coeffs), max(coeffs) + 1)]


def _cyclic_quotient(q: Sequence, m: int) -> list | None:
    """Delta with Q = (1 + s + ... + s^(m-1)) Delta, or None when the sum
    does not divide Q, from Q's ascending coefficients q: with the
    differences r_j = q_j - q_(j-1), (1 - s) Q = (1 - s^m) Delta gives
    delta_j = r_j + delta_(j-m), sums only, and the division is exact iff
    the recurrence over every r_j ends in m zeros."""
    r = [a - b for a, b in zip([*q, 0], [0, *q])]
    delta = r[:m]
    for j in range(m, len(r)):
        delta.append(r[j] + delta[j - m])
    top = max(len(r) - m, 0)
    return None if any(delta[top:]) else delta[:top]


# the longest trace series: the walk costs milliseconds a term, so a longer
# one would run for minutes with no output
_MAX_SERIES_LEN = 512


def _check_grid(grid: int) -> None:
    if grid < 64:
        raise ValueError("grid must be at least 64")


def _check_series_len(series_len: int) -> None:
    if series_len < 8:
        raise ValueError("series_len must be at least 8")
    if series_len > _MAX_SERIES_LEN:
        raise ValueError(f"series_len must be at most {_MAX_SERIES_LEN}")
