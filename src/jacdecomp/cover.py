"""Rank-n binary branched covers of the sphere with GF(2) monodromy.

A cover is described by its deck rank n and a list of branch points, each
carrying a nonzero monodromy vector in GF(2)^n (encoded as an int bitmask,
bit j-1 for the j-th standard generator).  Everything else, component
counts, genera, fixed points, quotients and the full index-two
decomposition, is derived from this data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, NamedTuple

from .numerics import (
    DomainError,
    first_collision,
    format_point,
    is_infinity,
    point_sort_key,
    to_point,
)


class Disconnected(DomainError):
    """Operation requires a connected cover."""


class ZeroElement(DomainError):
    """The zero vector is not a deck-group element with fixed points."""


class DependentBasis(DomainError):
    """A subgroup basis contains GF(2)-dependent vectors."""


# GF(2) linear algebra on int bitmasks

def _echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Gaussian elimination: a basis of the span keyed by leading bit.

    The basis vectors appear in the order their inputs were first found
    independent; every other GF(2) operation here goes through this one.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        v = _reduce(v, pivots)
        if v:
            pivots[v.bit_length() - 1] = v
    return pivots


def _reduce(v: int, pivots: dict[int, int]) -> int:
    """Remainder of v modulo an echelon basis: zero exactly on the span."""
    while v:
        head = v.bit_length() - 1
        if head not in pivots:
            return v
        v ^= pivots[head]
    return 0


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of a set of bit vectors over GF(2)."""
    return len(_echelon(vectors))


def pairing(functional: int, vector: int) -> int:
    """The GF(2) pairing <functional, vector> in {0, 1}."""
    return (functional & vector).bit_count() & 1


def functional_kernel_basis(functional: int, rank: int) -> list[int]:
    """A basis of the kernel of a nonzero functional on GF(2)^rank."""
    if functional == 0:
        raise ZeroElement("functional must be nonzero")
    if functional >> rank:
        raise ValueError("functional %s exceeds rank %d" % (bin(functional), rank))
    pivot = functional & -functional
    basis = []
    for j in range(rank):
        e = 1 << j
        if e == pivot:
            continue
        basis.append(e ^ pivot if pairing(functional, e) else e)
    return basis


class BranchDatum(NamedTuple):
    point: object
    vector: int


@dataclass(frozen=True)
class CoverModel:
    """Deck rank plus branch data; the XOR of all vectors must vanish."""

    rank: int
    branch: tuple

    def __init__(self, rank: int, branch):
        object.__setattr__(self, "rank", int(rank))
        data = tuple(BranchDatum(to_point(p), int(v)) for p, v in branch)
        object.__setattr__(self, "branch", data)
        self._validate()
        # read by component_count: one elimination serves every query
        object.__setattr__(self, "_components", 1 << (self.rank - gf2_rank(self.vectors)))

    def _validate(self):
        if self.rank < 1:
            raise ValueError("deck rank must be positive")
        total = 0
        for point, vector in self.branch:
            if vector == 0:
                raise ValueError("branch point %s carries the zero vector"
                                 % format_point(point))
            if vector >> self.rank:
                raise ValueError("branch vector %s exceeds rank %d" % (bin(vector), self.rank))
            total ^= vector
        if total:
            raise ValueError("branch vectors do not XOR to zero (no sphere cover)")
        pair = first_collision(self.points)
        if pair is not None:
            raise ValueError("branch points coincide within tolerance: %s"
                             % format_point(self.branch[pair[0]].point))

    @property
    def vectors(self) -> list[int]:
        return [v for _, v in self.branch]

    @property
    def points(self) -> list:
        return [p for p, _ in self.branch]


@dataclass(frozen=True)
class FactorCurve:
    """A hyperelliptic equation y^2 = prod (x - root).

    The root list is the branch set of the double cover; when it contains
    the point at infinity the corresponding linear factor is deleted from
    the equation (odd degree), which the genus count accounts for.
    """

    roots: tuple
    genus: int

    @property
    def finite_roots(self) -> list:
        return [r for r in self.roots if not is_infinity(r)]

    @property
    def deleted_infinity(self) -> bool:
        return any(is_infinity(r) for r in self.roots)


def _sorted_branch(c: CoverModel) -> list:
    """Branch data ordered by point_sort_key (stable).

    Filtering this list gives every subset already in its own sorted order,
    so one sort serves all functionals.
    """
    return sorted(c.branch, key=lambda datum: point_sort_key(datum.point))


def _odd_points(branch, functional: int) -> tuple:
    """The points whose vector pairs to 1 with the functional, in list order."""
    return tuple([p for p, v in branch if (functional & v).bit_count() & 1])


@dataclass(frozen=True)
class DecompositionReport:
    """Positive-genus index-two factors of a connected cover; kani_rosen_ok
    is the genus-sum check genus_sum == total_genus (see decompose)."""

    total_genus: int
    factors: tuple  # of (functional, FactorCurve), functionals ascending
    genus_sum: int
    kani_rosen_ok: bool


def component_count(c: CoverModel) -> int:
    """Number of connected components: 2^(rank - rank of the monodromy span)."""
    return c._components


def _riemann_hurwitz(m: int, b: int) -> int:
    """Riemann-Hurwitz: genus 1 - m + m b / 4 of a connected degree-m
    (Z/2)^k cover of the sphere with b branch values, all of index 2."""
    quarter, rem = divmod(m * b, 4)
    if rem:
        raise ValueError("inconsistent branch data: %d * %d branch values is not "
                         "a multiple of 4" % (m, b))
    return 1 - m + quarter


def total_genus(c: CoverModel) -> int:
    """Genus of a connected cover via Riemann-Hurwitz over the sphere."""
    if component_count(c) != 1:
        raise Disconnected("cover has %d components" % component_count(c))
    return _riemann_hurwitz(1 << c.rank, len(c.branch))


def component_genus(c: CoverModel) -> int:
    """Genus of one connected component (handles disconnected covers).

    A component is the connected cover with deck group the span V of the
    monodromy vectors, so its genus is 1 - |V| + B |V| / 4.
    """
    return _riemann_hurwitz(1 << gf2_rank(c.vectors), len(c.branch))


def fixed_point_count(c: CoverModel, element: int) -> int:
    """Number of fixed points of a nonzero deck element on a connected cover."""
    if element == 0:
        raise ZeroElement("the identity fixes everything; element must be nonzero")
    if component_count(c) != 1:
        raise Disconnected("fixed-point counting requires a connected cover")
    hits = sum(1 for v in c.vectors if v == element)
    return hits * (1 << (c.rank - 1))


def _normalize_subgroup(c: CoverModel, subgroup) -> dict[int, int]:
    """Echelon basis of an index-two kernel (functional int) or of an
    explicit basis (iterable), which must be independent."""
    if isinstance(subgroup, int):
        return _echelon(functional_kernel_basis(subgroup, c.rank))
    basis = [int(v) for v in subgroup]
    pivots = _echelon(basis)
    if len(pivots) != len(basis):
        raise DependentBasis("subgroup basis is GF(2)-dependent: %s"
                             % [bin(v) for v in basis])
    return pivots


def quotient_genus(c: CoverModel, subgroup) -> int:
    """Genus of the quotient of a connected cover by a deck subgroup.

    With m the index of the subgroup and B the number of branch vectors
    outside it, the quotient genus is 1 - m + m B / 4.
    """
    if component_count(c) != 1:
        raise Disconnected("quotient genus requires a connected cover")
    return _quotient_genus(c, _normalize_subgroup(c, subgroup))


def _quotient_genus(c: CoverModel, pivots: dict[int, int]) -> int:
    outside = sum(1 for _, v in c.branch if _reduce(v, pivots))
    return _riemann_hurwitz(1 << (c.rank - len(pivots)), outside)


def quotient_equation(c: CoverModel, functional: int) -> FactorCurve:
    """Hyperelliptic equation of the quotient by the kernel of a functional.

    The branch set consists of the points whose monodromy vector pairs to 1
    with the functional.
    """
    if component_count(c) != 1:
        raise Disconnected("quotient equation requires a connected cover")
    if functional == 0:
        raise ZeroElement("functional must be nonzero")
    roots = _odd_points(_sorted_branch(c), functional)
    return FactorCurve(roots=roots, genus=len(roots) // 2 - 1)


def decompose(c: CoverModel) -> DecompositionReport:
    """Enumerate all index-two quotients and collect the positive-genus factors.

    Factors are listed by ascending functional bitmask.  The branch is
    sorted once; each of the 2^n - 1 functionals then costs one pass over
    it.  kani_rosen_ok is the genus-sum check: the joins of distinct
    index-two kernels are always the whole deck group (two distinct
    hyperplanes of GF(2)^n span everything), and the subgroups of an
    abelian group commute, so the sum is the only condition left.
    """
    g_total = total_genus(c)
    branch = _sorted_branch(c)
    factors = []
    genus_sum = 0
    for functional in range(1, 1 << c.rank):
        roots = _odd_points(branch, functional)
        genus = len(roots) // 2 - 1
        if genus < 1:
            continue
        factors.append((functional, FactorCurve(roots=roots, genus=genus)))
        genus_sum += genus
    return DecompositionReport(
        total_genus=g_total,
        factors=tuple(factors),
        genus_sum=genus_sum,
        kani_rosen_ok=genus_sum == g_total,
    )


@dataclass
class KaniRosenDiagnostics:
    """Per-condition outcome of the decomposition criterion (the pairwise
    commuting condition holds in every abelian deck group, so it has no field)."""

    join_failures: list = field(default_factory=list)  # ((i, j), genus) with genus > 0
    genus_sum: int = 0
    total_genus: int = 0

    @property
    def joins_ok(self) -> bool:
        return not self.join_failures

    @property
    def sum_ok(self) -> bool:
        return self.genus_sum == self.total_genus

    @property
    def ok(self) -> bool:
        return self.joins_ok and self.sum_ok


def kani_rosen_criterion(c: CoverModel, subgroups) -> KaniRosenDiagnostics:
    """Check the decomposition hypotheses for an explicit list of subgroups.

    (1) all pairs commute, automatic in an abelian deck group once each
    entry is a genuine subgroup (independent basis); (2) the quotient by
    the join of each pair has genus zero; (3) the quotient genera sum to
    the total genus.  Failures are reported, not raised.
    """
    bases = [_normalize_subgroup(c, s) for s in subgroups]
    diag = KaniRosenDiagnostics(total_genus=total_genus(c))
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            join = _echelon([*bases[i].values(), *bases[j].values()])
            join_genus = _quotient_genus(c, join)
            if join_genus != 0:
                diag.join_failures.append(((i, j), join_genus))
    diag.genus_sum = sum(_quotient_genus(c, pivots) for pivots in bases)
    return diag


# Exact genus-sum identities behind the two families

def reducible_genus_sum_identity(s: int) -> tuple[int, int]:
    """Sum of (k-1) over even k-subsets of s indices versus 1 + 2^(s-2)(s-2).

    This is the bookkeeping that the index-two quotient genera of the
    two-component fiber-product family add up to its total genus.
    """
    if s < 3:
        raise ValueError("need s >= 3")
    lhs = sum(comb(s, k) * (k - 1) for k in range(2, s + 1) if k % 2 == 0)
    rhs = 1 + (1 << (s - 2)) * (s - 2)
    return lhs, rhs


def irreducible_genus_sum_identity(r: int) -> tuple[int, int]:
    """Odd subsets contribute (k+1)/2, even subsets of size >= 4 contribute
    (k-2)/2; together they match 1 + 2^(r-2)(r-1), the genus of the
    irreducible fiber-product family.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    lhs = sum(comb(r, k) * (k + 1) // 2 for k in range(1, r + 1, 2))
    lhs += sum(comb(r, k) * (k - 2) // 2 for k in range(4, r + 1, 2))
    rhs = 1 + (1 << (r - 2)) * (r - 1)
    return lhs, rhs
