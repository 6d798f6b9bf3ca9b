"""Families of epimorphisms from free groups onto coefficient groups.

Four computable kinds are provided: the identity of the free group, the
total winding map onto Z (every puncture generator to 1), the
abelianization onto Z^n, and a custom abelian quotient given by a matrix
of generator images.  Each kind supplies, for a braid alpha, the
compatibility map chi with Q o h_alpha == chi o Q (conjugation square)
and, where defined, the stabilization monomorphism sigma with
Q_{n+1} o iota == sigma o Q_n.

Quotients onto braid-closure groups and their deeper images are outside
the computable range of this library (no terminating word problem is
available there); they appear only in documentation and in the
one-variable consequences tested through the torsion module.

Families compare and hash by value, so a (braid, family) pair can key a
cache of the t-free part of an evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from fractions import Fraction

from . import braid as braidmod
from .braid import BraidWord
from .freegroup import Basis, FreeWord, artin_act
from .groupring import CoefficientGroup, Free, FreeAbelian, Integers


class Identity:
    """Q = id on every free group; the finest family."""

    name = "id"

    def target(self, n: int) -> CoefficientGroup:
        return Free(n)

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> FreeWord:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        return w

    def __repr__(self):
        return "Identity()"

    def __eq__(self, other):
        return isinstance(other, Identity)

    def __hash__(self):
        return hash(Identity)


class TotalWinding:
    """Q = total winding onto Z: every x_i to 1, hence g_i to i."""

    name = "phi"

    def target(self, n: int) -> CoefficientGroup:
        return Integers()

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> int:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        if basis is Basis.X:
            return sum(e for _, e in w.syllables)
        return sum(g * e for g, e in w.syllables)

    def __repr__(self):
        return "TotalWinding()"

    def __eq__(self, other):
        return isinstance(other, TotalWinding)

    def __hash__(self):
        return hash(TotalWinding)


class Abelianization:
    """Q = abelianization onto Z^n: x_i to the i-th basis vector."""

    name = "ab"

    def target(self, n: int) -> CoefficientGroup:
        return FreeAbelian(n)

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> tuple[int, ...]:
        if w.rank != n:
            raise ValueError(f"rank {w.rank} does not match strands {n}")
        v = [0] * n
        for g, e in w.syllables:
            if basis is Basis.X:
                v[g - 1] += e
            else:
                # g_i = x_1 ... x_i abelianizes to (1, ..., 1, 0, ..., 0)
                for j in range(g):
                    v[j] += e
        return tuple(v)

    def __repr__(self):
        return "Abelianization()"

    def __eq__(self, other):
        return isinstance(other, Abelianization)

    def __hash__(self):
        return hash(Abelianization)


class CustomAbelian:
    """Abelian quotient onto Z^d defined by images of the x-generators.

    The family is only defined at the rank its matrix was written for;
    applying it to words of another rank is an error, and the
    stabilization square is reported unsupported.
    """

    name = "custom"

    def __init__(self, images: Sequence[Sequence[int]]):
        self.images = tuple(tuple(int(x) for x in row) for row in images)
        if not self.images:
            raise ValueError("need at least one generator image")
        self.d = len(self.images[0])
        for row in self.images:
            if len(row) != self.d:
                raise ValueError("ragged image matrix")
        self.rank = len(self.images)

    def target(self, n: int) -> CoefficientGroup:
        return FreeAbelian(self.d)

    def winding_factors_through(self) -> bool:
        """True when some functional c on Z^d has <c, Q(x_i)> = 1 for all i."""
        m = [list(map(Fraction, self.images[i])) + [Fraction(1)]
             for i in range(self.rank)]
        return _solve_exact(m) is not None

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> tuple[int, ...]:
        if n != self.rank or w.rank != self.rank:
            raise ValueError(
                f"custom family defined for rank {self.rank}, got rank {w.rank}"
            )
        v = [0] * self.d
        for g, e in w.syllables:
            if basis is Basis.X:
                gens = (g,)
            else:
                gens = tuple(range(1, g + 1))
            for j in gens:
                img = self.images[j - 1]
                for a in range(self.d):
                    v[a] += e * img[a]
        return tuple(v)

    def __repr__(self):
        return f"CustomAbelian({self.images!r})"

    def __eq__(self, other):
        return isinstance(other, CustomAbelian) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


class TwistedFamily:
    """A family precomposed with the automorphism of a braid prefix.

    apply(w) = base(h_prefix(w)); this realizes the twisted coefficient
    maps that appear when Burau matrices of composite words are assembled
    from generator matrices.  Word images can grow exponentially in the
    prefix length, so commutative families get exact shortcut twists in
    :func:`twist` instead of this generic wrapper.
    """

    name = "twisted"

    def __init__(self, base, prefix: BraidWord):
        self.base = base
        self.prefix = prefix

    def target(self, n: int) -> CoefficientGroup:
        return self.base.target(n)

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X):
        return self.base.apply(artin_act(self.prefix, w, basis), n, basis)

    def extended(self, more: BraidWord) -> "TwistedFamily":
        return TwistedFamily(self.base, braidmod.compose(self.prefix, more))

    def __repr__(self):
        return f"TwistedFamily({self.base!r}, prefix={self.prefix.render()!r})"


class PermutedAbelianization:
    """The abelianization twisted by a braid: coordinates permuted.

    The abelianization of h_alpha(w) is the strand permutation of alpha
    applied to the abelianization of w, so the twist never needs the
    (exponentially long) image word itself.
    """

    name = "ab"

    def __init__(self, perm: tuple[int, ...]):
        self.perm = tuple(perm)

    def target(self, n: int) -> CoefficientGroup:
        return FreeAbelian(n)

    def apply(self, w: FreeWord, n: int, basis: Basis = Basis.X) -> tuple[int, ...]:
        v = Abelianization().apply(w, n, basis)
        out = [0] * n
        for i, e in enumerate(v):
            out[self.perm[i] - 1] = e
        return tuple(out)

    def __repr__(self):
        return f"PermutedAbelianization({self.perm!r})"

    def __eq__(self, other):
        return isinstance(other, PermutedAbelianization) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)


EpiFamily = (
    Identity
    | TotalWinding
    | Abelianization
    | CustomAbelian
    | TwistedFamily
    | PermutedAbelianization
)


def twists_cheaply(family) -> bool:
    """True when :func:`twist` avoids materializing Artin image words."""
    return isinstance(family, (TotalWinding, Abelianization, PermutedAbelianization))


def twist(family, prefix: BraidWord):
    """family o h_prefix, with exact shortcuts for commutative targets.

    The total winding of a word is braid-invariant, and the
    abelianization only gets its coordinates permuted, so those two
    families twist without touching any image words.
    """
    if isinstance(family, TotalWinding):
        return family
    if isinstance(family, Abelianization):
        return PermutedAbelianization(braidmod.permutation(prefix))
    if isinstance(family, PermutedAbelianization):
        inner = braidmod.permutation(prefix)
        n = len(inner)
        return PermutedAbelianization(
            tuple(family.perm[inner[i] - 1] for i in range(n))
        )
    if isinstance(family, TwistedFamily):
        return family.extended(prefix)
    return TwistedFamily(family, prefix)


def family_by_name(tag: str) -> EpiFamily:
    """CLI names: id, phi, ab, custom:<path to integer matrix file>."""
    if tag == "id":
        return Identity()
    if tag == "phi":
        return TotalWinding()
    if tag == "ab":
        return Abelianization()
    if tag.startswith("custom:"):
        path = tag.split(":", 1)[1]
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([int(x) for x in line.split()])
        return CustomAbelian(rows)
    raise ValueError(f"unknown family {tag!r}")


# --- chi / sigma compatibility maps ---------------------------------------


@dataclasses.dataclass
class ChiMap:
    """Descriptor of the conjugation-compatibility endomorphism."""

    kind: str
    data: object = None

    def __call__(self, elem):
        if self.kind == "identity":
            return elem
        if self.kind == "permutation":
            perm = self.data  # tuple: coordinate i maps to perm[i-1]
            out = [0] * len(perm)
            for i, e in enumerate(elem):
                out[perm[i] - 1] = e
            return tuple(out)
        if self.kind == "automorphism":
            alpha = self.data
            return artin_act(alpha, elem, Basis.X)
        if self.kind == "matrix":
            mat = self.data  # d x d rational matrix acting on column vectors
            return tuple(
                int(sum(Fraction(mat[a][b]) * elem[b] for b in range(len(elem))))
                for a in range(len(mat))
            )
        raise ValueError(f"unknown chi kind {self.kind}")


def chi_map(family, alpha: BraidWord) -> ChiMap:
    """The map chi with Q o h_alpha == chi o Q on the target of Q."""
    if isinstance(family, TotalWinding):
        return ChiMap("identity")
    if isinstance(family, Identity):
        return ChiMap("automorphism", alpha)
    if isinstance(family, Abelianization):
        return ChiMap("permutation", braidmod.permutation(alpha))
    if isinstance(family, CustomAbelian):
        mat = _solve_custom_chi(family, alpha)
        if mat is None:
            raise ValueError(
                "custom family admits no conjugation-compatibility map for this braid"
            )
        return ChiMap("matrix", mat)
    raise ValueError(f"chi map undefined for {family!r}")


def sigma_supported(family) -> bool:
    return not isinstance(family, (CustomAbelian, TwistedFamily))


def sigma_apply(family, elem, n: int):
    """Stabilization monomorphism on the target, Q_{n+1} o iota == sigma o Q_n."""
    if isinstance(family, TotalWinding):
        return elem
    if isinstance(family, Identity):
        return elem.with_rank(n + 1)
    if isinstance(family, Abelianization):
        return tuple(elem) + (0,)
    raise ValueError(f"stabilization map undefined for {family!r}")


def _solve_exact(rows):
    """Solve the linear system given as an augmented rational matrix.

    Returns one solution vector or None when inconsistent.
    """
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) - 1
    piv = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        sol[c] = m[i][-1]
    return sol


def _solve_custom_chi(family: CustomAbelian, alpha: BraidWord):
    """Find a rational d x d matrix C with C Q(x_i) = Q(h_alpha(x_i)) for all i."""
    n = family.rank
    if alpha.strands != n:
        raise ValueError("strand count does not match the custom family rank")
    targets = []
    for i in range(1, n + 1):
        img = artin_act(alpha, FreeWord.gen(n, i), Basis.X)
        targets.append(family.apply(img, n, Basis.X))
    d = family.d
    mat = []
    for a in range(d):
        # row a of C solves: sum_b C[a][b] * Q(x_i)[b] = target_i[a] for all i
        aug = [
            [Fraction(family.images[i][b]) for b in range(d)]
            + [Fraction(targets[i][a])]
            for i in range(n)
        ]
        sol = _solve_exact(aug)
        if sol is None:
            return None
        mat.append(sol)
    # verify exactly (the least-squares-free solve can be under-determined)
    for i in range(1, n + 1):
        lhs = ChiMap("matrix", mat)(family.apply(FreeWord.gen(n, i), n, Basis.X))
        if lhs != targets[i - 1]:
            return None
    return mat


# --- admissibility checking ------------------------------------------------


@dataclasses.dataclass
class AdmissibilityReport:
    family: str
    passed: bool
    conjugation_ok: bool
    stabilization_ok: bool | None  # None: square not defined for this family
    first_failure: str | None = None

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


def check_admissibility(
    family, beta: BraidWord, alpha: BraidWord, sign: int
) -> AdmissibilityReport:
    """Verify both Markov-compatibility squares on every free generator.

    Conjugation square: Q(h_alpha(x_i)) == chi(Q(x_i)).  Stabilization
    square: Q_{n+1}(iota(x_i)) == sigma(Q_n(x_i)).  Failures are reported,
    not raised.
    """
    if beta.strands != alpha.strands:
        raise ValueError("beta and alpha must share a strand count")
    n = beta.strands
    name = getattr(family, "name", str(family))
    first_failure = None

    conj_ok = True
    try:
        chi = chi_map(family, alpha)
    except ValueError as exc:
        conj_ok = False
        first_failure = f"chi: {exc}"
    else:
        for i in range(1, n + 1):
            xi = FreeWord.gen(n, i)
            lhs = family.apply(artin_act(alpha, xi, Basis.X), n, Basis.X)
            rhs = chi(family.apply(xi, n, Basis.X))
            if lhs != rhs:
                conj_ok = False
                first_failure = f"conjugation square fails at x{i}"
                break

    if not sigma_supported(family):
        stab_ok = None
    else:
        stab_ok = True
        for i in range(1, n + 1):
            xi = FreeWord.gen(n, i)
            lhs = family.apply(xi.with_rank(n + 1), n + 1, Basis.X)
            rhs = sigma_apply(family, family.apply(xi, n, Basis.X), n)
            if lhs != rhs:
                stab_ok = False
                if first_failure is None:
                    first_failure = f"stabilization square fails at x{i}"
                break

    passed = conj_ok and (stab_ok is not False)
    return AdmissibilityReport(name, passed, conj_ok, stab_ok, first_failure)
