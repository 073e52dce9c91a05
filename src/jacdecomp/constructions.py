"""Builders and solvers for the decomposable-Jacobian families.

Three cover families are constructed from tuples of genus-1 parameters:
the rank-2 genus-2 cover, the two-component fiber product of s curves
sharing branch values (modelled directly on one component, deck rank s-1),
and the irreducible fiber product of r curves branched over a common
(inf, 0, 1) triple (deck rank r).  Solvers pick the auxiliary parameters
that force prescribed genus-1 factors, with every choice certified by
independent cross-ratio oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, ldexp
from typing import NamedTuple

from mpmath import mp, mpc, mpf, sqrt

from .cover import CoverModel, DecompositionReport, FactorCurve, decompose
from .legendre import (
    InvalidDomain,
    OrbitTable,
    admissible_entry,
    admit_next,
    branch_set_pairing,
    cross_ratio_lambda,
    require_admissible_tuple,
)
from .numerics import (
    INFINITY,
    DomainError,
    MobiusMap,
    close,
    cross_ratio_unchecked,
    first_collision,
    first_near,
    format_point,
    gaussian_cross_ratio,
    gaussian_points,
    near_table,
    negligible,
    solve_quadratic,
    to_complex,
    _gauss,
)


class DegenerateParameter(DomainError):
    """Derived parameters collide or a required denominator vanishes."""


class NoValidRoot(DomainError):
    """Neither quadratic root satisfies the domain and oracle conditions."""


class ConstraintViolated(DomainError):
    """The defining polynomial constraint of a family is not satisfied."""

    def __init__(self, message: str, residual):
        super().__init__(message)
        self.residual = residual


class OutOfRange(DomainError):
    """Argument outside the range covered by a closed-form bound."""


# ---------------------------------------------------------------------------
# Genus two


@dataclass(frozen=True)
class Genus2Equation:
    """The curve y^2 = (x^2 - 1)(x^2 - eta1)(x^2 - eta2)."""

    eta1: mpc
    eta2: mpc

    def __post_init__(self):
        object.__setattr__(self, "eta1", to_complex(self.eta1))
        object.__setattr__(self, "eta2", to_complex(self.eta2))
        pts = [mpc(1), mpc(-1)]
        for eta in (self.eta1, self.eta2):
            root = sqrt(eta)
            pts.extend([root, -root])
        pair = first_collision(pts)
        if pair is not None:
            raise InvalidDomain("genus-2 branch points collide: %s"
                                % format_point(pts[pair[0]]))

    def normalizing_map(self) -> MobiusMap:
        """The map sending (1, eta1, eta2) to (1, inf, 0).

        Applied to the squared-coordinate branch values it recovers the two
        defining parameters: inf goes to the first, 0 to the second.
        """
        one = mpc(1)
        return MobiusMap(
            one - self.eta1,
            -(one - self.eta1) * self.eta2,
            one - self.eta2,
            -(one - self.eta2) * self.eta1,
        )


def build_genus2(l1, l2) -> tuple[Genus2Equation, CoverModel]:
    """Genus-2 curve whose Jacobian splits into the two given genus-1 factors.

    Returns the even hyperelliptic model together with the rank-2 cover
    branched over (inf, 0, 1, l1, l2); the deck quotients by the two
    coordinate involutions are the prescribed curves.
    """
    l1, l2 = require_admissible_tuple([l1, l2])
    eta1 = (l1 - 1) / (l2 - 1)
    eta2 = l2 * (l1 - 1) / (l1 * (l2 - 1))
    equation = Genus2Equation(eta1, eta2)
    model = CoverModel(2, [
        (INFINITY, 0b11),
        (mpc(0), 0b11),
        (mpc(1), 0b11),
        (l1, 0b01),
        (l2, 0b10),
    ])
    return equation, model


# ---------------------------------------------------------------------------
# The two-component fiber product family (deck rank s - 1)


@dataclass(frozen=True)
class ReducibleParams:
    """One base parameter plus (s-2) pairs; the full tuple must be
    pairwise distinct and avoid 0 and 1."""

    lam: mpc
    mu: tuple  # ((mu_1_1, mu_1_2), ..., (mu_{s-2}_1, mu_{s-2}_2))

    def __init__(self, lam, mu):
        pairs = tuple((to_complex(a), to_complex(b)) for a, b in mu)
        if not pairs:
            raise InvalidDomain("need at least one parameter pair (s >= 3)")
        object.__setattr__(self, "lam", to_complex(lam))
        object.__setattr__(self, "mu", pairs)
        require_admissible_tuple(self.flat(), name="p")

    @classmethod
    def admitted(cls, lam: mpc, pairs: tuple) -> ReducibleParams:
        """Params of mpc values whose tuple is admitted, not validated again."""
        params = object.__new__(cls)
        object.__setattr__(params, "lam", lam)
        object.__setattr__(params, "mu", pairs)
        return params

    @property
    def s(self) -> int:
        return len(self.mu) + 2

    def flat(self) -> list[mpc]:
        out = [self.lam]
        for a, b in self.mu:
            out.extend([a, b])
        return out


def build_reducible(params: ReducibleParams) -> CoverModel:
    """One component of the fiber product of s curves sharing branch values.

    Deck rank s-1 with standard generators; the last pair of branch points
    carries the product of all generators, so the total monodromy vanishes.
    """
    s = params.s
    full = (1 << (s - 1)) - 1
    branch = [
        (INFINITY, 0b1),
        (mpc(0), 0b1),
        (mpc(1), 0b10),
        (params.lam, 0b10),
    ]
    for k in range(1, s - 2):
        vec = 1 << (k + 1)
        branch.append((params.mu[k - 1][0], vec))
        branch.append((params.mu[k - 1][1], vec))
    branch.append((params.mu[s - 3][0], full))
    branch.append((params.mu[s - 3][1], full))
    return CoverModel(s - 1, branch)


def build_raw_fiber_product(params: ReducibleParams) -> CoverModel:
    """The full fiber product of the s curves, deck rank s, two components.

    Each branch value is shared by exactly two of the curves, so its
    monodromy is the sum of the two corresponding coordinate generators.
    """
    s = params.s
    branch = [
        (INFINITY, 0b1 | (1 << (s - 1))),
        (mpc(0), 0b1 | (1 << (s - 1))),
        (mpc(1), 0b11),
        (params.lam, 0b11),
    ]
    for k in range(1, s - 1):
        vec = (1 << k) | (1 << (k + 1))
        branch.append((params.mu[k - 1][0], vec))
        branch.append((params.mu[k - 1][1], vec))
    return CoverModel(s, branch)


# ---------------------------------------------------------------------------
# Explicit equations for the two-component family


class CurveEquation(NamedTuple):
    """One defining equation w^2 = constant * prod (z - root), each root simple."""

    alpha: tuple
    constant: mpc
    roots: tuple

    def evaluate(self, z) -> mpc:
        value = self.constant
        z = to_complex(z)
        for root in self.roots:
            value *= z - root
        return value


def alpha_to_functional(alpha) -> int:
    functional = 0
    for j, bit in enumerate(alpha[:-1]):
        if bit:
            functional |= 1 << j
    return functional


def functional_to_alpha(functional: int, s: int) -> tuple:
    bits = [(functional >> j) & 1 for j in range(s - 1)]
    bits.append(sum(bits) & 1)
    return tuple(bits)


def _coordinate_forms(params: ReducibleParams):
    """Linear forms (constant, coefficient) grouped by deck coordinate.

    Eliminating the ambient quadric variables against the last parameter
    row leaves each squared coordinate as a linear polynomial in z; the
    group with index j collects the forms that the j-th deck coordinate
    contributes to an equation.
    """
    s = params.s
    pivot = params.mu[s - 3][1]
    groups: list[list[tuple[mpc, mpc]]] = []
    groups.append([(mpc(0), mpc(1)), (mpc(-1), -pivot)])
    groups.append([(mpc(1), pivot - 1), (mpc(1), pivot - params.lam)])
    for k in range(1, s - 2):
        a, b = params.mu[k - 1]
        groups.append([(mpc(1), pivot - a), (mpc(1), pivot - b)])
    groups.append([(mpc(1), pivot - params.mu[s - 3][0])])
    return groups


def derive_equations_reducible(params: ReducibleParams) -> list[CurveEquation]:
    """Expand the eliminated linear forms into the explicit equation system.

    One equation per even-weight nonzero exponent pattern alpha, ordered by
    ascending functional bitmask; the constant is the product of the form
    leading coefficients and the roots are the form zeros.

    Each form's zero is computed once.  Constants and root tuples fill one
    table over all 2^s coordinate subsets: the entry for a bitmask is the
    entry without its highest bit times (joined with) that coordinate's
    forms, so the coefficients are multiplied in ascending coordinate order.
    """
    s = params.s
    groups = _coordinate_forms(params)
    constants, roots = [mpc(1)], [()]
    for group in groups:
        zeros = tuple(-const / coeff for const, coeff in group)
        for lower in range(len(constants)):
            constant = constants[lower]
            for _, coeff in group:
                constant *= coeff
            constants.append(constant)
            roots.append(roots[lower] + zeros)
    equations = []
    for functional in range(1, 1 << (s - 1)):
        alpha = functional_to_alpha(functional, s)
        mask = functional | alpha[-1] << (s - 1)
        equations.append(CurveEquation(alpha=alpha, constant=constants[mask],
                                       roots=roots[mask]))
    return equations


# ---------------------------------------------------------------------------
# Parameter solvers


def _pick_root(quadratic, admit, oracles, orbits: OrbitTable, heading: str,
               **context) -> ReducibleParams:
    """``admit(root)`` for the first root of the quadratic (a, b, c) that
    ``admit`` accepts (else it raises InvalidDomain) and whose admitted last
    pair (mu, k mu) passes the (target, p1, p2, message) oracles in order:
    the cross-ratio of (p1, p2, mu, k mu) lies in the target's orbit from
    ``orbits``.  Admission (ReducibleParams, or admit_next of the pair) has
    shown those points pairwise distinct under the same close rule, so the
    cross-ratio is cross_ratio_unchecked, whose admissibility same_curve
    tests.  A root stops at its first failure; only then is that message, a
    ``str.format`` template over ``mu`` and ``context``, formatted."""
    failures = []
    for root in solve_quadratic(*quadratic):
        try:
            params = admit(root)
        except InvalidDomain as exc:
            failures.append(str(exc))
            continue
        pair = params.mu[-1]
        failed = next((message for target, p1, p2, message in oracles
                       if not orbits.same_curve(target, cross_ratio_unchecked(p1, p2, *pair))),
                      None)
        if failed is None:
            return params
        failures.append(failed.format(mu=format_point(root), **context))
    raise NoValidRoot(heading.format(**context) + "; ".join(failures))


def solve_mu_genus3(l1, l2, l3) -> mpc:
    """Auxiliary parameter making the s=3 construction split into the three
    prescribed genus-1 factors.

    Returns a root mu of the defining quadratic such that (l1, mu, l3*mu)
    is admissible and the two branch-set cross-ratio oracles match l2 and
    l3 up to parameter equivalence.
    """
    l1, l2, l3 = require_admissible_tuple([l1, l2, l3])
    a = l2 * l3
    b = -(l1 * l2 + l2 * l3 + l1 * l3 - l1 - l3 + 1)
    c = l1 * l2
    return _pick_root(
        (a, b, c),
        lambda mu: ReducibleParams(l1, ((mu, l3 * mu),)),
        [(l2, mpc(1), l1, "orbit oracle for second factor failed at mu={mu}"),
         (l3, INFINITY, mpc(0), "orbit oracle for third factor failed at mu={mu}")],
        OrbitTable(),
        "no quadratic root passes the domain and oracle checks: ").mu[0][0]


def genus9_parameters(lam, mu) -> ReducibleParams:
    """Parameters of the s=4 family whose Jacobian splits into nine
    genus-1 factors.

    The two derived pairs are matched so that x -> lam/x and
    x -> lam(x-1)/(x-lam) both permute the eight branch points without
    fixed points, which is also verified here.
    """
    lam, mu = require_admissible_tuple([lam, mu])
    m11 = mu
    m12 = lam / mu
    m21 = lam * (mu - 1) / (mu - lam)
    m22 = (mu - lam) / (mu - 1)
    try:
        params = ReducibleParams(lam, ((m11, m12), (m21, m22)))
    except InvalidDomain as exc:
        raise DegenerateParameter("derived parameters collide: %s" % exc) from exc
    points = [INFINITY, mpc(0), mpc(1), lam, m11, m12, m21, m22]
    for m in (MobiusMap(0, lam, 1, 0), MobiusMap(lam, -lam, 1, -lam)):
        if not branch_set_pairing(m, points).ok:
            raise DegenerateParameter(
                "branch-set involution fails to pair the eight points")
    return params


def genus_upper_bound(r: int) -> int:
    """Smallest constructed genus carrying r prescribed genus-1 factors."""
    if r < 4:
        raise OutOfRange("bound is stated for r >= 4, got %r" % r)
    if r % 2 == 0:
        return 1 + (1 << ((r - 2) // 2)) * r
    return 1 + (1 << ((r - 3) // 2)) * (r - 1)


def solve_mu_chain(lambdas, orbits: OrbitTable | None = None) -> ReducibleParams:
    """Chain of quadratic solves realizing r = 2s-3 prescribed genus-1
    factors inside the two-component family.

    For each pair index j the second entry is lambda_{j+1} times the first,
    which pins the (inf, 0) branch-set factor, and the quadratic pins the
    (1, lam) branch-set factor to lambda_{s-1+j}.  Both roots are tried in
    a deterministic order.  The input is validated once; a tried root is
    admitted by checking only its pair (mu, lambda_{j+1} mu) against the
    tuple admitted so far (admit_next, with the errors of ReducibleParams
    of the whole tuple), and then certified by the cross-ratio oracles.  The
    oracles take each target's orbit from ``orbits`` (a fresh table when
    None), which tag_factors can then reuse.
    """
    orbits = OrbitTable() if orbits is None else orbits
    values = require_admissible_tuple(lambdas)
    r = len(values)
    if r < 3 or r % 2 == 0:
        raise InvalidDomain("need an odd number r >= 3 of parameters, got %d" % r)
    s = (r + 3) // 2
    lam = values[0]
    zero, one = mpc(0), mpc(1)
    table, entries = near_table([lam]), []
    pairs = ()

    # _pick_root calls admit within one step, whose ratio and pairs it reads;
    # the pair's near entries wait in entries until its oracles pass
    def admit(mu):
        pair = mu, ratio * mu
        entries[:] = admit_next(table, pair, "p")
        return ReducibleParams.admitted(lam, pairs + (pair,))
    for j in range(1, s - 1):
        ratio = values[j]
        target = values[s - 2 + j]
        a = ratio * (1 - target)
        b = target - ratio - lam + lam * ratio * target
        c = lam * (1 - target)
        params = _pick_root(
            (a, b, c),
            admit,
            [(ratio, INFINITY, zero, "ratio oracle failed at pair {pair}"),
             (target, one, lam, "target oracle failed at pair {pair}")],
            orbits,
            "pair {pair}: no root passes the checks: ", pair=j)
        pairs = params.mu
        table.extend(entries)
    return params


def chain_with_auxiliary(lambdas) -> list[mpc]:
    """Pad an even-length parameter list with one auxiliary value.

    The auxiliary curve starts at -1 and steps by -1/4 until it clears the
    existing parameters, making the even case a deterministic instance of
    the odd chain.
    """
    values = require_admissible_tuple(lambdas)
    if len(values) % 2 == 1:
        return values
    aux = mpf(-1)
    while any(close(aux, v) for v in values):
        aux -= mpf(1) / 4
    return values + [mpc(aux)]


# ---------------------------------------------------------------------------
# The irreducible fiber product family (deck rank r)


def build_irreducible(lambdas) -> CoverModel:
    """Fiber product of r curves all branched over (inf, 0, 1, lambda_j).

    Deck rank r; each lambda_j carries the j-th generator and the three
    shared branch points carry the product of all generators.
    """
    values = require_admissible_tuple(lambdas)
    r = len(values)
    if r < 3:
        raise InvalidDomain("need at least three parameters, got %d" % r)
    full = (1 << r) - 1
    branch = [(INFINITY, full), (mpc(0), full), (mpc(1), full)]
    for j, lam in enumerate(values):
        branch.append((lam, 1 << j))
    return CoverModel(r, branch)


@dataclass
class SplitReport:
    """Outcome of check_split_family; ``pairings`` maps (functional, k) to the
    pairing under that factor's k-th map.  A family adds its parameters."""

    factor_genera: tuple
    pairings: dict
    elliptic_count: int
    total_genus: int
    lambdas: tuple = ()
    residual: mpc | None = None

    @property
    def ok(self) -> bool:
        paired = all(p.ok for p in self.pairings.values())
        return paired and self.elliptic_count == self.total_genus


def check_split_family(model: CoverModel, involutions: dict, lambdas=(),
                       residual=None) -> SplitReport:
    """Decompose ``model`` and count its elliptic factors: 1 per genus-1
    factor, and g per genus-g factor whose branch set each of its g - 1
    maps in ``involutions`` (functional -> list of MobiusMap) pairs.  The
    Jacobian splits completely when every pairing holds and the count is
    the model's total genus."""
    report = decompose(model)
    curves = dict(report.factors)
    pairings = {(functional, k): branch_set_pairing(m, curves[functional].roots)
                for functional, maps in sorted(involutions.items())
                for k, m in enumerate(maps)}
    split = {f for f, maps in involutions.items() if len(maps) == curves[f].genus - 1
             and all(pairings[f, k].ok for k in range(len(maps)))}
    count = sum(curve.genus for f, curve in report.factors if curve.genus == 1 or f in split)
    return SplitReport(tuple(curve.genus for _, curve in report.factors), pairings, count,
                       report.total_genus, tuple(lambdas), residual)


def check_genus5_family(l1, l2) -> SplitReport:
    """Verify that the r=3 product with third parameter l1/l2 splits
    completely: three genus-1 quotients plus a genus-2 quotient whose
    branch set is paired by x -> l1/x."""
    l1, l2 = require_admissible_tuple([l1, l2])
    values = [l1, l2, l1 / l2]
    # build_irreducible checks (l1, l2, l3); the map cannot raise first, as
    # its determinant -l1 is admissible.  The one genus-2 factor of a rank-3
    # irreducible model is functional 111.
    return check_split_family(build_irreducible(values), {0b111: [MobiusMap(0, l1, 1, 0)]},
                              lambdas=values)


def check_genus13_family(l1, l2) -> SplitReport:
    """Verify the one-parameter genus-13 family: l3 and l4 are derived from
    (l1, l2), which must satisfy the defining quadratic constraint, and four
    involutions then pair the branch sets of the four genus-2 quotients."""
    l1, l2 = require_admissible_tuple([l1, l2])
    l3, l4 = l1 / l2, l1 * (l2 - 1) / (l2 - l1)
    values = require_admissible_tuple([l1, l2, l3, l4])
    terms = l2 * l2 * (1 + l1), 4 * l1 * l2, l1 * (1 + l1)
    residual = terms[0] - terms[1] + terms[2]
    if not negligible(residual, *terms):
        raise ConstraintViolated("constraint residual %s exceeds tolerance"
                                 % format_point(residual), residual)
    return check_split_family(build_irreducible(values), {
        0b0111: [MobiusMap(0, l1, 1, 0)],
        0b1011: [MobiusMap(l1, -l1, 1, -l1)],
        0b1101: [MobiusMap(1, -l1, 1, -1)],
        0b1110: [MobiusMap(l2, -l2 * l3, 1, -l2)],
    }, lambdas=values, residual=residual)


def factor_lambda_invariant(curve: FactorCurve) -> mpc:
    """Normalized parameter of a genus-1 factor (compare via same_curve)."""
    if curve.genus != 1:
        raise ValueError("lambda invariant requires a genus-1 factor")
    p1, p2, p3, p4 = curve.roots
    return cross_ratio_lambda(p1, p2, p3, p4)


def tag_factors(report: DecompositionReport, candidates,
                orbits: OrbitTable | None = None) -> list:
    """Per factor: for genus 1 the first candidate, in input order, whose
    S3 orbit holds the factor's invariant, else the invariant; None for any
    other genus.

    The candidates' orbits come from ``orbits`` (a fresh table when None)
    and form one list of their six near entries each, in candidate order, so
    the first entry close to the invariant belongs to the first matching
    candidate.  Each invariant has the bits of cross_ratio_unchecked of the
    factor's roots, which their CoverModel has checked with the same close
    rule: gaussian_cross_ratio from one gaussian_points of every genus-1
    root, or where those span too wide, that call.  One sphere copy of each
    invariant serves the admissibility test and the orbit scan."""
    orbits = OrbitTable() if orbits is None else orbits
    table = [entry for candidate in candidates for entry in orbits.orbit(candidate)]
    roots = [curve.genus == 1 and [None if p is INFINITY else p._mpc_ for p in curve.roots]
             for _, curve in report.factors]
    exact = gaussian_points({z for points in roots if points for z in points}, mp.prec)

    def tag(curve, points):
        invariant = (cross_ratio_unchecked(*curve.roots) if exact is None
                     else gaussian_cross_ratio(*[exact[z] for z in points], mp.prec))
        k = first_near(admissible_entry(invariant._mpc_), table)
        return invariant if k is None else candidates[k // 6]
    return [tag(curve, points) if points else None
            for (_, curve), points in zip(report.factors, roots)]


# ---------------------------------------------------------------------------
# Closed-form cross-checks of the derived equation systems

# Fixed relative bounds of the equation cross-checks, independent of
# ``numerics.epsilon()``: a derived root matches a closed-form root within
# ROOT_MATCH_TOLERANCE; constants, matched roots and sampled identities must
# agree within CROSSCHECK_TOLERANCE.
CROSSCHECK_TOLERANCE = 1e-9
ROOT_MATCH_TOLERANCE = 1e-6


def closed_form_constants(params: ReducibleParams, alphas) -> list[mpc]:
    """The published product formula for the constant of each exponent
    pattern in ``alphas``.

    Recomputed directly from the parameter tuple rather than from the
    elimination pipeline, for cross-checking.  Each deck coordinate's factor
    is formed once per call and multiplied in ascending coordinate order.
    """
    s = params.s
    pivot = params.mu[s - 3][1]
    factors = [-pivot, (pivot - 1) * (pivot - params.lam)]
    for a, b in params.mu[:s - 3]:
        factors.append((pivot - a) * (pivot - b))
    factors.append(pivot - params.mu[s - 3][0])
    constants = []
    for alpha in alphas:
        value = mpc(1)
        for bit, factor in zip(alpha, factors):
            if bit:
                value *= factor
        constants.append(value)
    return constants


def closed_form_constant(params: ReducibleParams, alpha) -> mpc:
    """closed_form_constants for one exponent pattern."""
    return closed_form_constants(params, [alpha])[0]


def reference_system_s3(l1, l3, mu) -> dict:
    """Expected s=3 equation system for the substitution (l1, mu, l3*mu).

    Closed forms in (l1, l3, mu), obtained independently from the quotient
    branch-set bookkeeping: each exponent pattern selects the branch values
    pairing nontrivially with it, transported to the z coordinate.
    """
    l1, l3, mu = to_complex(l1), to_complex(l3), to_complex(mu)
    e0 = -1 / (l3 * mu)
    e1 = 1 / (1 - l3 * mu)
    e2 = 1 / (l1 - l3 * mu)
    e3 = 1 / (mu * (1 - l3))
    return {
        (0, 1, 1): (mu * (l3 * mu - 1) * (l3 * mu - l1) * (l3 - 1), [e1, e2, e3]),
        (1, 0, 1): (-l3 * mu * mu * (l3 - 1), [mpc(0), e0, e3]),
        (1, 1, 0): (-l3 * mu * (l3 * mu - 1) * (l3 * mu - l1), [mpc(0), e0, e1, e2]),
    }


def reference_system_s4(lam, m11, m12, m21, m22) -> dict:
    """Expected s=4 equation system in closed form, including the composite
    last equation (the all-ones pattern is the product of the (0,1,1,0)
    and (1,0,0,1) equations)."""
    lam, m11, m12, m21, m22 = (to_complex(v) for v in (lam, m11, m12, m21, m22))
    e0 = -1 / m22
    e1 = 1 / (1 - m22)
    e2 = 1 / (lam - m22)
    e11 = 1 / (m11 - m22)
    e12 = 1 / (m12 - m22)
    e3 = 1 / (m21 - m22)
    k3 = (m22 - 1) * (m22 - lam) * (m22 - m11) * (m22 - m12)
    k4 = -m22 * (m22 - m21)
    return {
        (0, 0, 1, 1): ((m22 - m11) * (m22 - m12) * (m22 - m21), [e11, e12, e3]),
        (0, 1, 0, 1): ((m22 - 1) * (m22 - lam) * (m22 - m21), [e1, e2, e3]),
        (0, 1, 1, 0): (k3, [e1, e2, e11, e12]),
        (1, 0, 0, 1): (k4, [mpc(0), e0, e3]),
        (1, 0, 1, 0): (-m22 * (m22 - m11) * (m22 - m12), [mpc(0), e0, e11, e12]),
        (1, 1, 0, 0): (-m22 * (m22 - 1) * (m22 - lam), [mpc(0), e0, e1, e2]),
        (1, 1, 1, 1): (k3 * k4, [e1, e2, e11, e12, mpc(0), e0, e3]),
    }


class EquationComparison(NamedTuple):
    alpha: tuple
    constant_error: float
    roots_matched: bool
    max_root_error: float

    @property
    def ok(self) -> bool:
        return self.roots_matched and self.constant_error <= CROSSCHECK_TOLERANCE \
            and self.max_root_error <= CROSSCHECK_TOLERANCE


def compare_with_reference(equations, reference) -> list[EquationComparison]:
    """Match each derived equation against a closed-form reference system.

    Constants are compared relatively; roots are matched as multisets with
    the relative matching error reported.
    """
    by_alpha = {eq.alpha: eq for eq in equations}
    out = []
    for alpha, (constant, roots) in sorted(reference.items()):
        eq = by_alpha[alpha]
        c_err = float(abs(eq.constant - constant) / (1 + abs(constant)))
        matched = True
        max_err = 0.0
        remaining = list(eq.roots)
        for want in roots:
            best_idx, best, scale = None, None, 1 + abs(want)
            for idx, have in enumerate(remaining):
                err = float(abs(have - want) / scale)
                if best is None or err < best:
                    best_idx, best = idx, err
            if best_idx is None or best > ROOT_MATCH_TOLERANCE:
                matched = False
                max_err = float("inf") if best is None else max(max_err, best)
                continue
            max_err = max(max_err, best)
            remaining.pop(best_idx)
        if remaining:
            matched = False
        out.append(EquationComparison(alpha=alpha, constant_error=c_err,
                                      roots_matched=matched, max_root_error=max_err))
    return out


def _round(x: int, y: int, e: int, prec: int) -> tuple:
    """(x + iy) 2^e with each part rounded once to prec bits, nearest-even,
    back at one exponent: the lower of the nonzero parts'."""
    n = x.bit_length() - prec
    if n > 0:
        # floor shift, plus one above the half and at the half of an odd quotient
        x = (x + ((x >> n) & 1) + (1 << (n - 1)) - 1) >> n
    k = y.bit_length() - prec
    if k > 0:
        y = (y + ((y >> k) & 1) + (1 << (k - 1)) - 1) >> k
    if n > k:
        if n <= 0:
            return x, y, e
        if k > 0:
            return x << (n - k), y, e + k
        return (x << n, y, e) if y else (x, 0, e + n)
    if k <= 0:
        return x, y, e
    if n > 0:
        return x, y << (k - n), e + n
    return (x, y << k, e) if x else (0, y, e + k)


def _gmul(p, q, prec: int) -> tuple:
    """p * q: four exact integer products, each part rounded once."""
    x, y, e = p
    u, v, f = q
    return _round(x * u - y * v, x * v + y * u, e + f, prec)


def _gadd(p, q, prec: int) -> tuple:
    """p + q: exact part sums at the lower exponent, each part rounded once."""
    x, y, e = p
    u, v, f = q
    if e > f:
        return _round((x << (e - f)) + u, (y << (e - f)) + v, f, prec)
    return _round(x + (u << (f - e)), y + (v << (f - e)), e, prec)


def _modulus(z) -> tuple:
    """(h, e) with |z| = h 2^e for a nonzero z, h a double in [1/2, 2): each
    part is read from the top 64 bits of its own mantissa and scaled to
    below 1 before hypot."""
    x, y, e = z
    n1, n2 = x.bit_length(), y.bit_length()
    top = max(n1, n2) + e
    s1, s2 = max(n1 - 64, 0), max(n2 - 64, 0)
    return hypot(ldexp(x >> s1, e - top + s1), ldexp(y >> s2, e - top + s2)), top


def _error(d, raw) -> float:
    """|d| / (1 + |raw|) as a double, d nonzero, within 2^-49 relative (plus
    2^-1074 absolute) of the exact quotient of these d and raw.  The
    exponents stay apart until the last ldexp, so no step overflows; an
    error beyond the double range is inf."""
    h, e = _modulus(d)
    if raw[0] or raw[1]:
        r, top = _modulus(raw)
        if top > 0:
            h, e = h / (ldexp(1.0, -top) + r), e - top
        else:
            h /= 1.0 + ldexp(r, top)
    try:
        return ldexp(h, e)
    except OverflowError:
        return float("inf")


def sampled_identity_errors(params: ReducibleParams, equations, samples) -> list[float]:
    """Relative error between each expanded equation and the raw
    (unexpanded) product of the linear forms it selects, worst over the
    given sample points.

    Per sample, each form is evaluated once into a table of the raw
    products over the coordinate subsets: the entry for a bitmask is the
    entry without its highest bit times that coordinate's forms, so the
    forms are multiplied in ascending coordinate order.  Every exponent
    pattern has even weight, so the entries of odd weight that hold the
    last coordinate are never read and are left as None.  Each distinct
    root's difference z - root is taken once per sample and shared by every
    equation holding that root.

    Arithmetic.  Forms, constants, roots and samples are converted once to
    Gaussian integers with one exponent (_gauss).  Every real and imaginary
    part of the form values, the table, the differences, the expanded chains
    and d = expanded - raw is the exact result of its integer part products
    and sums, rounded once to mp.prec bits, nearest-even (_round).

    Error.  Each nonzero d gives |d| / (1 + |raw|) as a double (_error),
    within 2^-49 relative (plus 2^-1074 absolute) of the exact quotient of
    that d and raw; a d of 0 has error 0.0 exactly.
    """
    prec = mp.prec
    *groups, last = [[(_gauss(const._mpc_), _gauss(coeff._mpc_)) for const, coeff in group]
                     for group in _coordinate_forms(params)]
    (last_const, last_coeff), = last
    # the lower entries of odd weight, the ones the last coordinate joins
    odd = [bool(lower.bit_count() & 1) for lower in range(1 << len(groups))]
    distinct: dict = {}
    plan = []
    for eq in equations:
        mask = sum(bit << j for j, bit in enumerate(eq.alpha))
        indices = [distinct.setdefault(root._mpc_, len(distinct)) for root in eq.roots]
        plan.append((mask, _gauss(eq.constant._mpc_), indices))
    negated = [(-x, -y, e) for x, y, e in map(_gauss, distinct)]
    errors = [0.0] * len(equations)
    for z in samples:
        z = _gauss(to_complex(z)._mpc_)
        table = [(1, 0, 0)]
        for group in groups:
            values = [_gadd(const, _gmul(coeff, z, prec), prec) for const, coeff in group]
            for lower in range(len(table)):
                raw = table[lower]
                for value in values:
                    raw = _gmul(raw, value, prec)
                table.append(raw)
        value = _gadd(last_const, _gmul(last_coeff, z, prec), prec)
        table.extend([_gmul(raw, value, prec) if joins else None
                      for raw, joins in zip(table, odd)])
        differences = [_gadd(z, root, prec) for root in negated]
        for k, (mask, (x, y, e), indices) in enumerate(plan):
            for i in indices:
                u, v, f = differences[i]
                x, y, e = _round(x * u - y * v, x * v + y * u, e + f, prec)
            raw = table[mask]
            d = _gadd((x, y, e), (-raw[0], -raw[1], raw[2]), prec)
            if d[0] or d[1]:
                errors[k] = max(errors[k], _error(d, raw))
    return errors
