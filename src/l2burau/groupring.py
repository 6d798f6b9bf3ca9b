"""Formal sums over a coefficient group with exact Laurent-in-t coefficients.

An element sums terms c(t) * g where c is a Laurent polynomial in the
positive real parameter t with rational coefficients and g belongs to one
of three computable coefficient groups: the integers, a free abelian group,
or a free group.  Keeping t symbolic makes the Markov-move identities exact;
numbers enter only when a determinant backend substitutes a value for t.

Group elements are stored as canonical reduced representatives (an int, an
integer tuple, or a reduced FreeWord) and used directly as mapping keys, so
equality of elements and matrices is structural and decidable.
"""

from __future__ import annotations

import dataclasses
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .freegroup import Basis, FreeWord, winding


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

    @staticmethod
    def const(c: RationalLike) -> "TPoly":
        return TPoly({0: Fraction(c)})

    @staticmethod
    def t_power(k: int, c: RationalLike = 1) -> "TPoly":
        return TPoly({k: Fraction(c)})

    @staticmethod
    def zero() -> "TPoly":
        return TPoly()

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def _wrap(coeffs: dict) -> "TPoly":
        """A TPoly around a dict that is already clean: Fractions, no zeros."""
        res = TPoly.__new__(TPoly)
        res.coeffs = coeffs
        return res

    def __add__(self, other: "TPoly") -> "TPoly":
        out = dict(self.coeffs)
        _flat_add(out, other.coeffs)
        return TPoly._wrap(out)

    def __neg__(self) -> "TPoly":
        return TPoly._wrap({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        out: dict[int, Fraction] = {}
        _flat_addmul(out, self.coeffs, other.coeffs, operator.add)
        return TPoly._wrap(out)

    def scale(self, c: RationalLike) -> "TPoly":
        c = Fraction(c)
        return TPoly._wrap({} if not c else {k: v * c for k, v in self.coeffs.items()})

    def evaluate(self, t0: RationalLike) -> Fraction:
        t0 = Fraction(t0)
        if t0 <= 0:
            raise ValueError("t must be positive")
        return sum((c * t0**k for k, c in self.coeffs.items()), Fraction(0))

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

    def sort_key(self, a):
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
        return GroupRingElement(group, {group.identity(): TPoly.const(1)})

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

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self._plus(other, 1)

    def __neg__(self) -> "GroupRingElement":
        res = GroupRingElement.__new__(GroupRingElement)
        res.group = self.group
        res.terms = {g: -c for g, c in self.terms.items()}
        return res

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self._plus(other, -1)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        ((a,), (b,)), mul, _, element = _keyed(self.group, [[_flat(self)], [_flat(other)]])
        acc: dict = {}
        _flat_addmul(acc, a, b, mul)
        return element(acc)

    def scale(self, c: TPoly | RationalLike) -> "GroupRingElement":
        if not isinstance(c, TPoly):
            c = TPoly.const(c)
        return GroupRingElement(
            self.group, {g: v * c for g, v in self.terms.items()}
        )

    def adjoint(self) -> "GroupRingElement":
        """c(t) g -> c(t) g^-1; coefficients are real so stay untouched."""
        return GroupRingElement(
            self.group, {self.group.inv(g): c for g, c in self.terms.items()}
        )

    def augmentation(self) -> TPoly:
        out = TPoly.zero()
        for c in self.terms.values():
            out = out + c
        return out

    def vn_trace(self) -> TPoly:
        """Coefficient of the identity element."""
        for g, c in self.terms.items():
            if self.group.is_identity(g):
                return c
        return TPoly.zero()

    def coefficients_at(self, t0: RationalLike) -> dict:
        """{group element: Fraction} after substituting t = t0."""
        t0 = Fraction(t0)
        out = {}
        for g, c in self.terms.items():
            v = c.evaluate(t0)
            if v:
                out[g] = v
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"<GroupRingElement {self.render()}>"

    def render(self, letter: str = "g") -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: self.group.sort_key(kv[0]))
        parts = []
        for g, c in items:
            cs = c.render()
            if " + " in cs:  # parenthesize only genuine sums
                cs = f"({cs})"
            gs = (
                self.group.render(g, letter)
                if isinstance(self.group, Free)
                else self.group.render(g)
            )
            parts.append(f"{cs} [{gs}]")
        return " + ".join(parts)

    def to_json_obj(self, letter: str = "g") -> list:
        items = sorted(self.terms.items(), key=lambda kv: self.group.sort_key(kv[0]))
        out = []
        for g, c in items:
            gs = (
                self.group.render(g, letter)
                if isinstance(self.group, Free)
                else self.group.render(g)
            )
            out.append(
                {"elem": gs, "coeffs": {str(k): str(v) for k, v in c.coeffs.items()}}
            )
        return out


# --- Flat kernel ------------------------------------------------------------
#
# Every exact sum of products in the package runs here: element and TPoly
# arithmetic, matrix products, the Laplace determinant, the fold of the
# Burau assembly, and the free-group operators of the determinant
# backends.  Operands are flat {key: coefficient} dicts; _flat_addmul adds
# a product of two of them to an accumulator, and _flat_add adds one.  A
# key stands for a pair (group element, t exponent), or for a plain
# exponent or group element where only one of them varies; see _keyed for
# the int keys of commutative groups.  A coefficient stays a Python int
# while its denominator is 1, so nearly every product is a plain integer
# multiply.  Zero coefficients are never stored, so an empty dict is the
# zero element.


def _flat(e: GroupRingElement) -> dict:
    """{(group element, t exponent): coefficient} of one element."""
    return {
        (g, k): c.numerator if c.denominator == 1 else c
        for g, tp in e.terms.items()
        for k, c in tp.coeffs.items()
    }


def _unflat(group: CoefficientGroup, d: dict) -> GroupRingElement:
    terms: dict = {}
    for (g, k), c in d.items():
        terms.setdefault(g, {})[k] = c
    return GroupRingElement(group, {g: TPoly(cs) for g, cs in terms.items()})


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


def _keyed(group: CoefficientGroup, rows: list[list[dict]]):
    """Choose the kernel's keys for sums of products of flat entries.

    Every term the caller builds must be a product of at most one entry
    term from each of ``rows`` (a row of a Laplace expansion, the column
    of one braid letter, or the entries of one factor of a product).
    Returns the re-keyed rows, the key product, the key of one, and the
    map from a keyed dict back to an element.

    Over a commutative group (Z^d under +: an int, an int tuple, or a
    power of the generator of a rank <= 1 free group) a key is one int
    whose balanced digits in an odd base are the group coordinates and then
    the t exponent, so the key product is the int sum.  The base exceeds
    twice the sum over rows of each row's largest coordinate, which bounds
    every coordinate a product can reach, so no digit ever carries.  Over
    a free group of rank >= 2 a key stays the (element, exponent) pair.
    """
    if not is_commutative(group):
        gmul = group.mul
        return (
            rows,
            lambda a, b: (gmul(a[0], b[0]), a[1] + b[1]),
            (group.identity(), 0),
            lambda d: _unflat(group, d),
        )
    vrows = [
        [{(*_coords(group, g), k): c for (g, k), c in d.items()} for d in row]
        for row in rows
    ]
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

    return (
        [[{pack(v): c for v, c in d.items()} for d in row] for row in vrows],
        operator.add,
        0,
        lambda d: _unflat(group, {unpack(k): c for k, c in d.items()}),
    )


def vn_trace(x) -> TPoly:
    """Von Neumann trace of an element or of a square matrix (diagonal sum)."""
    if isinstance(x, GroupRingMatrix):
        if x.rows != x.cols:
            raise ValueError("trace needs a square matrix")
        out = TPoly.zero()
        for i in range(x.rows):
            out = out + x.entries[i][i].vn_trace()
        return out
    return x.vn_trace()


# --- kappa: the t-twisting ring map ---------------------------------------


def kappa(
    w: FreeWord,
    family,
    n: int,
    basis: Basis = Basis.G,
    coeff: TPoly | RationalLike = 1,
) -> GroupRingElement:
    """Send a free word to coeff * t^winding(w) * family(w).

    ``family`` is any epimorphism family object exposing ``target(n)`` and
    ``apply(word, n, basis)``; the winding exponent is computed from the
    word in its own basis (x-letters weigh 1, g-letters weigh their index).
    """
    if not isinstance(coeff, TPoly):
        coeff = TPoly.const(coeff)
    grp = family.target(n)
    elem = family.apply(w, n, basis)
    return GroupRingElement(grp, {elem: coeff * TPoly.t_power(winding(w, basis))})


def kappa_of_terms(
    terms: Mapping[FreeWord, RationalLike], family, n: int, basis: Basis = Basis.G
) -> GroupRingElement:
    """Linear extension of kappa to {free word: rational} sums."""
    grp = family.target(n)
    out = GroupRingElement.zero(grp)
    for w, c in terms.items():
        out = out + kappa(w, family, n, basis, coeff=c)
    return out


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

    @staticmethod
    def zeros(group, rows: int, cols: int) -> "GroupRingMatrix":
        zero = GroupRingElement.zero(group)
        return GroupRingMatrix(group, [[zero] * cols for _ in range(rows)])

    @staticmethod
    def block_assemble(blocks: Sequence[Sequence["GroupRingMatrix"]]) -> "GroupRingMatrix":
        """Assemble a block grid; block shapes must tile consistently."""
        group = blocks[0][0].group
        rows: list[list[GroupRingElement]] = []
        for brow in blocks:
            height = brow[0].rows
            for b in brow:
                if b.rows != height:
                    raise ValueError("inconsistent block heights")
            for r in range(height):
                row: list[GroupRingElement] = []
                for b in brow:
                    row.extend(b.entries[r])
                rows.append(row)
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("inconsistent block widths")
        return GroupRingMatrix(group, rows)

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        self._same_shape(other)
        return GroupRingMatrix(
            self.group,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        self._same_shape(other)
        return GroupRingMatrix(
            self.group,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __mul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        """Standard matrix product; entry factors multiply left to right."""
        return self._product(other, opposite=False)

    def opposite_mul(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        """Matrix product over the opposite ring: same index pattern as the
        standard product, but each entry pair multiplies right-to-left.

        This is the composition law satisfied by Burau matrices under the
        word-reading convention fixed in :mod:`l2burau.braid`; for a
        commutative coefficient group it coincides with ``self * other``.
        """
        return self._product(other, opposite=True)

    def _product(self, other: "GroupRingMatrix", opposite: bool) -> "GroupRingMatrix":
        """Entry (i, k) is the sum over j of A[i][j] B[j][k], or of
        B[j][k] A[i][j] when ``opposite``; every entry term is keyed once."""
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.shape} x {other.shape}")
        (a, b), mul, _, element = _keyed(
            self.group,
            [[_flat(e) for row in m.entries for e in row] for m in (self, other)],
        )
        out = []
        for i in range(self.rows):
            row = []
            for k in range(other.cols):
                acc: dict = {}
                for j in range(self.cols):
                    x, y = a[i * self.cols + j], b[j * other.cols + k]
                    if opposite:
                        x, y = y, x
                    _flat_addmul(acc, x, y, mul)
                row.append(element(acc))
            out.append(row)
        return GroupRingMatrix(self.group, out)

    def scale(self, c) -> "GroupRingMatrix":
        return GroupRingMatrix(
            self.group, [[e.scale(c) for e in row] for row in self.entries]
        )

    def adjoint(self) -> "GroupRingMatrix":
        """Transpose with entry-wise adjoint, so (A B)* == B* A*."""
        return GroupRingMatrix(
            self.group,
            [
                [self.entries[i][j].adjoint() for i in range(self.rows)]
                for j in range(self.cols)
            ],
        )

    def determinant(self) -> GroupRingElement:
        """Exact symbolic determinant in t; commutative coefficient groups only.

        Laplace expansion along rows, shared over column subsets: the minor
        on the last n - r rows and the columns outside a mask of r columns
        is computed once per mask, so an n x n matrix costs at most 2^n
        minors.  The masks the expansion can reach (through nonzero
        entries only) are found top-down first; the minors are then filled
        bottom-up, level r from level r + 1, so only two adjacent levels
        are alive at a time.  The entries are flattened once into
        flat-kernel dicts keyed by single ints (see ``_keyed``), the
        expansion runs on those with int multiplies and int key sums, and
        only the final sum is turned back into an element.  Exponential in
        n, fine for the small matrices here.
        """
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        if not is_commutative(self.group):
            raise ValueError("symbolic determinant needs a commutative group")
        n = self.rows
        rows, mul, one, element = _keyed(
            self.group, [[_flat(e) for e in row] for row in self.entries]
        )
        levels = [{0}]  # levels[r]: the reachable masks of r columns
        for row in rows[:-1]:
            levels.append({
                mask | (1 << j)
                for mask in levels[-1]
                for j in range(n)
                if row[j] and not mask & (1 << j)
            })
        below: dict[int, dict] = {(1 << n) - 1: {one: 1}}
        for r in range(n - 1, -1, -1):
            row, here = rows[r], {}
            for mask in levels[r]:
                acc: dict = {}
                sign = 1
                for j in range(n):
                    if mask & (1 << j):
                        continue
                    if row[j]:
                        _flat_addmul(acc, row[j], below[mask | (1 << j)], mul, sign)
                    sign = -sign
                here[mask] = acc
            below = here
        return element(below[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _same_shape(self, other: "GroupRingMatrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

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
