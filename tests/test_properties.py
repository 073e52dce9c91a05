"""Property tests: decompose against brute force, GF(2) elimination against
explicit spans, the sort-and-sweep collision search against the full
pairwise scan, the prefiltered first_near against a linear close scan,
the sphere copies against their points at 4,000 bits, negligible against
the mpc modulus test, admissibility and same_curve under t -> 1/t, orbit
tagging against the first-candidate close scan and, with admissibility,
against the exact Gaussian-rational oracle, the orbit table and same_curve
against the close scan over the six orbit images, the genus-5, genus-9
and genus-13 families' split over their parameter spaces, cross_ratio_lambda against the
cross-ratio formula at twice the precision and its kernel against the exact value rounded
once, to_double against libmp's conversion, the solver oracles' distinct points after
admission, one-pair admission against the whole tuple's validation, the sampled equation identity within its error contract of
the one-product-per-equation reference loop and equal to the two-part
integer kernel's, its integer arithmetic
against the exact results of libmp's mpc_mul, mpc_add and mpc_sub rounded
once, its error step against the exact quotient, the two-component equations against the cover's quotient branch
sets, parse_complex and set_epsilon against the literal grammar built
from its parts, format_complex against its two-part reference, the CLI's
equation rendering from term tables against per-root formatting, and the
JSON writer against json.dumps."""

import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import (finf, fnan, fninf, fone, from_man_exp, fzero, mpc_add, mpc_mul, mpc_sub,
                          mpf_add, mpf_pos, round_nearest)

from jacdecomp import cli, constructions, legendre, numerics
from jacdecomp.constructions import (
    ReducibleParams,
    build_reducible,
    check_genus5_family,
    check_genus13_family,
    check_split_family,
    factor_lambda_invariant,
    genus9_parameters,
)
from jacdecomp.cover import (
    _echelon,
    decompose,
    gf2_rank,
    pairing,
    quotient_equation,
    quotient_genus,
    total_genus,
)
from jacdecomp.legendre import random_admissible
from jacdecomp.numerics import (
    INFINITY,
    CollidingPoints,
    DomainError,
    close,
    cross_ratio_lambda,
    epsilon,
    first_collision,
    first_near,
    format_point,
    is_infinity,
    near_entry,
    near_table,
    parse_complex,
    point_sort_key,
    solve_quadratic,
)

from helpers import (
    GaussianRational,
    _sampled_errors_one_form_product_per_equation,
    chordal,
    chordal_boundary_values,
    chordal_neighbour,
    cross_ratio_at_twice_the_precision,
    exact_cross_ratio,
    exact_j,
    exact_orbit,
    format_complex_reference,
    genus9_involutions,
    random_cover_model,
    render_curve_equation_reference,
    render_factor_curve_reference,
    rounded_once,
    same_curve_by_scan,
    sampled_identity_errors_reference,
    sphere_gap,
    to_double_reference,
    within_error_contract,
)

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_decompose_matches_brute_force(seed):
    model = random_cover_model(random.Random(seed))
    report = decompose(model)
    factors = dict(report.factors)
    for functional in range(1, 1 << model.rank):
        genus = quotient_genus(model, functional)
        roots = sorted((p for p, v in model.branch if pairing(functional, v)),
                       key=point_sort_key)
        if genus < 1:
            assert functional not in factors
            continue
        curve = factors[functional]
        assert curve.genus == genus == len(roots) // 2 - 1
        assert curve.roots == tuple(roots)
        assert curve == quotient_equation(model, functional)
    assert report.genus_sum == report.total_genus == total_genus(model)
    assert report.kani_rosen_ok


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {u ^ v for u in span}
    return span


@SETTINGS
@given(st.lists(st.integers(0, 255), max_size=10))
def test_elimination_rank_is_log_of_span(vectors):
    span = _span(vectors)
    rank = gf2_rank(vectors)
    assert len(_echelon(vectors)) == rank
    assert 1 << rank == len(span)
    assert _span(_echelon(vectors).values()) == span


def _scan(points):
    for i, j in combinations(range(len(points)), 2):
        if close(points[i], points[j]):
            return i, j
    return None


_DIRECTIONS = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / 2 ** 0.5])
# 2^60 + 2^7 and 1 + 2^-53 lie halfway between two doubles, so a point just
# above one of them gets a double copy one unit in the last place away
_MIDPOINTS = [mpc(mpf(2) ** 60 + 2 ** 7, 1), mpc(1 + mpf(2) ** -53)]
_BASES = st.one_of(
    st.builds(mpc, st.floats(-5, 5), st.floats(-5, 5)),
    st.sampled_from([0, 1, mpc(0), mpc(1), mpc(1e8), mpc(-2.5, 1e-3), *_MIDPOINTS,
                     mpc(mpf("1e400"), 1), mpc(1, mpf("-1e400")), mpc(1e300, 2)]),
)
# chordal offsets in units of epsilon, straddling the tolerance
_STEPS = st.sampled_from([0, 0.5, 1, -1, 1 - 1e-6, 1 + 1e-6, -(1 + 1e-6), 2, 1e6])


@st.composite
def near_duplicate_points(draw):
    """Bases (the plain ints 0 and 1 among them), offsets from them as (base
    index, step in units of epsilon, direction), a count of infinities and
    an order of the whole list, resolved at the epsilon in force."""
    bases = draw(st.lists(_BASES, min_size=1, max_size=6))
    offsets = draw(st.lists(st.tuples(st.integers(0, len(bases) - 1), _STEPS,
                                      _DIRECTIONS), max_size=6))
    infinities = draw(st.integers(0, 2))
    return bases, offsets, infinities, draw(
        st.permutations(range(len(bases) + len(offsets) + infinities)))


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.25"])
@settings(max_examples=300, deadline=None)
@given(near_duplicate_points())
@example(recipes=([_MIDPOINTS[0]], [(0, 0.5, 1)], 0, [0, 1]))
def test_first_collision_matches_full_scan(eps, recipes):
    bases, offsets, infinities, order = recipes
    saved = epsilon()
    numerics.set_epsilon(eps)
    try:
        points = bases + [chordal_neighbour(bases[index], step, direction)
                          for index, step, direction in offsets] + [INFINITY] * infinities
        points = [points[k] for k in order]
        assert first_collision(points) == _scan(points)
    finally:
        numerics.set_epsilon(saved)


_PARTS = st.one_of(
    st.builds(lambda m, k: m * 10.0 ** k,
              st.floats(1, 10).flatmap(lambda m: st.sampled_from([m, -m])),
              st.integers(-300, 300)),
    st.sampled_from([0.0, 1.0, -0.5, 5e-324, -2.5e-320, 1e-310]),
    st.sampled_from([mpf("1e400"), mpf("-3e330"), mpf("1.7e308")]),
)
# chordal offsets in units of epsilon, straddling it by 2^-40
_NEAR_STEPS = st.sampled_from([0, 0.5, 1 - 2 ** -40, 1 + 2 ** -40, 2, 1e6])


@st.composite
def near_queries(draw):
    """Values and a query as recipes: (base index, offset in units of
    epsilon, direction) over drawn bases, resolved at the epsilon in force."""
    bases = draw(st.lists(st.builds(mpc, _PARTS, _PARTS), min_size=1, max_size=5))
    offset = st.tuples(st.integers(0, len(bases) - 1), _NEAR_STEPS, _DIRECTIONS)
    return bases, draw(st.lists(offset, max_size=8)), draw(offset)


def _resolve(bases, recipe):
    index, step, direction = recipe
    return chordal_neighbour(bases[index], step, direction)


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.25"])
@settings(max_examples=200, deadline=None)
@given(near_queries())
def test_first_near_matches_linear_close_scan(eps, recipes):
    bases, offsets, query = recipes
    saved = epsilon()
    numerics.set_epsilon(eps)
    try:
        values = bases + [_resolve(bases, recipe) for recipe in offsets]
        x = _resolve(bases, query)
        want = next((k for k, v in enumerate(values) if close(x, v)), None)
        assert first_near(near_table([x])[0], near_table(values)) == want
    finally:
        numerics.set_epsilon(saved)


# a relative offset of the modulus from epsilon: within 2^-40, a few units
# in the last place at the working precision, or up to 2^-30
_MODULUS_OFFSETS = st.one_of(
    st.floats(-2.0 ** -40, 2.0 ** -40),
    st.integers(-8, 8).map(lambda k: ("ulps", k)),
    st.floats(-2.0 ** -30, 2.0 ** -30),
)
# a part of size 2^1000 or more: (mantissa, binary exponent)
_HUGE_PARTS = st.tuples(st.floats(-4, 4).filter(lambda m: abs(m) >= 1),
                        st.integers(1000, 1100))


@st.composite
def epsilon_probes(draw):
    """A value recipe: ("near", offset, direction), ("huge", part, part or
    None) or ("any", re, im), resolved at the precision and epsilon in force."""
    kind = draw(st.sampled_from(["near", "huge", "any"]))
    if kind == "near":
        return kind, draw(_MODULUS_OFFSETS), draw(_DIRECTIONS)
    if kind == "huge":
        return kind, draw(_HUGE_PARTS), draw(st.none() | _HUGE_PARTS)
    return kind, draw(_PARTS), draw(_PARTS)


def _resolve_probe(probe):
    kind, first, second = probe
    if kind == "near":
        if isinstance(first, tuple):
            first = first[1] * mpf(2) ** (1 - mp.prec)
        return epsilon() * (1 + mpf(first)) * mpc(second)
    if kind == "huge":
        huge = [None if part is None else mpf(part[0]) * mpf(2) ** part[1]
                for part in (first, second)]
        return mpc(huge[0], 1 if huge[1] is None else huge[1])
    return mpc(first, second)


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.25"])
@pytest.mark.parametrize("bits", [53, 128, 256])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(mpc, _PARTS, _PARTS), min_size=1, max_size=2), epsilon_probes())
def test_negligible_is_the_modulus_test(eps, bits, terms, probe):
    """negligible(z, *terms) against |z| <= epsilon max |term| in mpc, with z
    near that bound (a "near" probe's modulus is epsilon max |term| times
    1 + offset), far above it, or anywhere."""
    saved = mp.prec, epsilon()
    mp.prec = bits
    try:
        numerics.set_epsilon(eps)
        terms = [+t for t in terms]
        scale = max(abs(t) for t in terms)
        z = _resolve_probe(probe) * (scale if probe[0] == "near" else 1)
        assert numerics.negligible(z, *terms) == (abs(z) <= epsilon() * scale)
    finally:
        mp.prec = saved[0]
        numerics.set_epsilon(saved[1])


# chordal offsets of the drawn parameters from their centers, in units of
# epsilon, straddling it
_ANYWHERE = st.builds(mpc, _PARTS, _PARTS)
_INVERSION_STEPS = st.sampled_from([0.5, 1 - 2 ** -30, 1 + 2 ** -30, 2, 1e6])


@st.composite
def inversion_cases(draw):
    """Two parameters, each near 0, 1, inf or a drawn value, or the second
    near an orbit image of the first."""
    centers = [mpc(0), mpc(1), INFINITY, draw(_ANYWHERE)]
    first = chordal_neighbour(draw(st.sampled_from(centers)), draw(_INVERSION_STEPS),
                              draw(_DIRECTIONS))
    assume(not is_infinity(first) and first != 0 and first != 1)
    images = legendre.orbit_images(first._mpc_)
    center = draw(st.sampled_from(centers + [mp.make_mpc(w) for w in images]))
    second = chordal_neighbour(center, draw(_INVERSION_STEPS), draw(_DIRECTIONS))
    assume(not is_infinity(second) and second != 0)
    return first, second


def _admitted(value):
    """require_admissible's answer."""
    try:
        legendre.require_admissible(value)
    except legendre.InvalidDomain:
        return False
    return True


def _clear_of(value, points) -> bool:
    """True when the chordal distance of value from each point differs from
    epsilon by more than a relative 2^-40, and by more than the rounding of
    1/value and of the orbit images, a few units of 2^-mp.prec."""
    margin = epsilon() * mpf(2) ** -40 + mpf(2) ** (4 - mp.prec)
    return all(abs(chordal(value, p) - epsilon()) > margin for p in points)


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.1"])
@settings(max_examples=40, deadline=None)
@given(inversion_cases())
def test_admissibility_and_same_curve_are_invariant_under_inversion(eps, case):
    """t -> 1/t is an isometry of the chordal metric that swaps 0 and inf and
    permutes each orbit, so admissibility and same_curve do not change under
    it, except within a relative 2^-40 of the tolerance or the rounding of
    1/t of it."""
    numerics.set_epsilon(eps)
    first, second = case
    boundary = [mpc(0), mpc(1), INFINITY]
    for t in (first, second):
        if _clear_of(t, boundary):
            assert _admitted(t) == _admitted(1 / t)
    if not (_admitted(first) and _admitted(second)):
        return
    images = [mp.make_mpc(w) for w in legendre.orbit_images(first._mpc_)]
    if _clear_of(second, images):
        want = legendre.same_curve(first, second)
        assert legendre.same_curve(1 / first, second) == want
        assert legendre.same_curve(first, 1 / second) == want


SPLIT_SETTINGS = settings(max_examples=50, deadline=None)


@SPLIT_SETTINGS
@given(st.integers(0, 2 ** 32))
def test_genus5_family_splits_over_its_parameter_plane(seed):
    report = check_genus5_family(*random_admissible(random.Random(seed), 2))
    assert report.ok and report.elliptic_count == 5


@SPLIT_SETTINGS
@given(st.integers(0, 2 ** 32))
def test_genus13_family_splits_at_both_roots_of_its_constraint(seed):
    """l2 solves l2^2 (1 + l1) - 4 l1 l2 + l1 (1 + l1) = 0."""
    (l1,) = random_admissible(random.Random(seed), 1)
    for l2 in solve_quadratic(1 + l1, -4 * l1, l1 * (1 + l1)):
        report = check_genus13_family(l1, l2)
        assert report.ok and report.elliptic_count == 13


@SPLIT_SETTINGS
@given(st.integers(0, 2 ** 32))
def test_genus9_family_splits_and_a_moved_branch_point_does_not(seed):
    """Scaling m22 by 1 + 10^-6 moves a branch point of the genus-3 factor off
    the pairings, so its three elliptic curves are no longer counted."""
    lam, mu = random_admissible(random.Random(seed), 2)
    params = genus9_parameters(lam, mu)
    report = check_split_family(build_reducible(params), genus9_involutions(lam))
    assert report.ok and report.elliptic_count == 9
    (m11, m12), (m21, m22) = params.mu
    moved = ReducibleParams(lam, ((m11, m12), (m21, m22 * (1 + mpf(10) ** -6))))
    report = check_split_family(build_reducible(moved), genus9_involutions(lam))
    assert not report.ok and report.elliptic_count < 9


# a part of the sphere-copy property: 0, a full mantissa at a binary
# exponent in [-1100, 1100] (subnormal and inf double copies among them)
_SPHERE_PARTS = st.one_of(
    st.just(0),
    st.builds(lambda m, e: mpf(m) / 3 * mpf(2) ** e,
              st.floats(-4, 4).filter(lambda m: abs(m) >= 1), st.integers(-1100, 1100)),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([53, 128, 256]), _SPHERE_PARTS, _SPHERE_PARTS)
def test_sphere_copies_lie_within_their_stated_bound(bits, re, im):
    """The sphere copy of a value and those of its orbit images lie within
    2^-48 of their points on the unit sphere, formed at 4,000 bits."""
    saved = mp.prec
    mp.prec = bits
    try:
        t = mpc(re, im)
        assert sphere_gap(near_entry(t._mpc_)) <= mpf(2) ** -48
        if t != 0 and t != 1:
            for entry in legendre._orbit_entries(t._mpc_):
                assert sphere_gap(entry) <= mpf(2) ** -48
    finally:
        mp.prec = saved


# a part of a double copy: zero, inf, -inf, nan, or a signed mantissa of 1
# to 1,100 bits, random or all ones (which rounds up a binade), whose top
# exp + bc lies across the subnormal edge, across the overflow edge or
# between them
_DOUBLE_TOPS = st.one_of(st.integers(-1080, -1015), st.integers(1015, 1030),
                         st.integers(-1014, 1014))


@st.composite
def _double_parts(draw):
    kind = draw(st.sampled_from(["zero", "special", "random", "random", "ones"]))
    if kind == "zero":
        return fzero
    if kind == "special":
        return draw(st.sampled_from([finf, fninf, fnan]))
    bc = draw(st.integers(1, 1100))
    man = (1 << bc) - 1 if kind == "ones" else draw(st.integers(1 << (bc - 1), (1 << bc) - 1))
    return from_man_exp(man if draw(st.booleans()) else -man, draw(_DOUBLE_TOPS) - bc)


@settings(max_examples=1000, deadline=None)
@given(_double_parts(), _double_parts())
@example(from_man_exp((1 << 60) - 1, 1024 - 60), fzero)
@example(from_man_exp((1 << 1100) - 1, -1100), fone)
@example(from_man_exp(-((1 << 1024) - 1), -1024), fnan)
def test_to_double_is_libmps_conversion(re, im):
    got, want = numerics.to_double((re, im)), to_double_reference((re, im))
    assert [repr(got.real), repr(got.imag)] == [repr(want.real), repr(want.imag)]


def _reference_tags(report, candidates):
    """For each factor: the first candidate describing the same curve as a
    genus-1 factor, else its invariant; None for other genera."""
    tags = []
    for _, curve in report.factors:
        if curve.genus != 1:
            tags.append(None)
            continue
        invariant = factor_lambda_invariant(curve)
        tags.append(next((c for c in candidates if same_curve_by_scan(c, invariant)),
                         invariant))
    return tags


@st.composite
def tagging_builds(draw):
    """`decompose` arguments for a random irreducible or solver-chain build."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        selector, count = "--lambdas", draw(st.integers(3, 6))
        construction = "irreducible"
    else:
        selector, count = "--chain", draw(st.integers(3, 7))
        construction = "reducible"
    text = ",".join(format_point(v) for v in random_admissible(rng, count))
    return ["decompose", construction, "%s=%s" % (selector, text)]


@settings(max_examples=25, deadline=None)
@given(tagging_builds())
def test_orbit_tags_match_first_candidate_scan(argv):
    args = cli.make_parser().parse_args(argv)
    try:
        built = cli.build_from_args(args)
    except DomainError:
        assume(False)
    report = decompose(built["model"])
    candidates = built["candidates"]
    want = _reference_tags(report, candidates)
    orbits = []
    build = legendre._orbit_entries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(legendre, "_orbit_entries",
                      lambda t: orbits.append(t) or build(t))
        tags = constructions.tag_factors(report, candidates)
    assert len(orbits) == len(candidates)
    assert tags == want
    payload, _ = cli.cmd_decompose(args)
    assert [f["orbit_of"] for f in payload["factors"]] == [
        None if tag is None else format_point(tag) for tag in want]


_SMALL_PARTS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def exact_parameters(draw):
    """Three to five Gaussian rationals with small p/q parts; about 30 % of
    them are an orbit image of an earlier one, to force ties."""
    values = []
    for _ in range(draw(st.integers(3, 5))):
        earlier = [v for v in values if v != 0 and v != 1]
        if earlier and draw(st.integers(0, 9)) < 3:
            values.append(exact_orbit(draw(st.sampled_from(earlier)))[draw(st.integers(1, 5))])
        else:
            values.append(GaussianRational(draw(_SMALL_PARTS), draw(_SMALL_PARTS)))
    return values


def _separation(pairs) -> mpf:
    """The least chordal distance between the two points of each pair that
    are not exactly equal (inf as None), or inf when there is none."""
    def point(p):
        return INFINITY if p is None else p.to_mpc()
    return min((chordal(point(p), point(q)) for p, q in pairs if p != q), default=mpf("inf"))


@pytest.mark.parametrize("eps", ["1e-9", "0.02"])
@settings(max_examples=20, deadline=None)
@given(exact_parameters())
def test_tags_and_admissibility_agree_with_the_exact_oracle(eps, values):
    """decompose irreducible on Gaussian-rational inputs, against exact
    arithmetic: require_admissible_tuple accepts exactly the tuples of
    distinct values off 0 and 1, and each genus-1 factor is tagged with the
    first candidate whose exact j equals that of the factor's exact
    invariant, whenever every two exactly distinct points compared lie
    more than 4 epsilon apart.  Closer inputs are undecided and counted."""
    numerics.set_epsilon(eps)
    limit = 4 * epsilon()
    boundary = [GaussianRational(0), GaussianRational(1), None]
    pairs = list(combinations(values, 2)) + [(v, b) for v in values for b in boundary]
    if _separation(pairs) <= limit:
        event("undecided: inputs within 4 epsilon")
        return
    parsed = [parse_complex(v.literal()) for v in values]
    exact_ok = len(set(values)) == len(values) and not any(v in (0, 1) for v in values)
    try:
        candidates = legendre.require_admissible_tuple(parsed)
    except legendre.InvalidDomain:
        assert not exact_ok
        return
    assert exact_ok
    report = decompose(constructions.build_irreducible(candidates))
    exact = {mpc(0)._mpc_: GaussianRational(0), mpc(1)._mpc_: GaussianRational(1),
             **{p._mpc_: v for p, v in zip(parsed, values)}}
    invariants = [exact_cross_ratio(*[None if is_infinity(p) else exact[p._mpc_]
                                      for p in curve.roots])
                  if curve.genus == 1 else None for _, curve in report.factors]
    if _separation([(v, b) for v in invariants if v is not None for b in boundary]) <= limit:
        event("undecided: an invariant within 4 epsilon of 0, 1 or inf")
        return
    tags = constructions.tag_factors(report, candidates)
    images = [w for v in values for w in exact_orbit(v)]
    for invariant, tag in zip(invariants, tags):
        if invariant is None:
            continue
        if _separation([(invariant, w) for w in images]) <= limit:
            event("undecided: an invariant within 4 epsilon of an orbit")
            continue
        want = next((k for k, v in enumerate(values) if exact_j(v) == exact_j(invariant)),
                    None)
        got = next((k for k, c in enumerate(candidates) if tag is c), None)
        assert got == want


def _outcome(function, points):
    """("value", its _mpc_) or ("raise", exception type, message)."""
    try:
        value = function(*points)
    except ValueError as exc:
        return "raise", type(exc), str(exc)
    return "value", value._mpc_


# a cluster center: mantissas up to 10 in size times 10^k, |k| <= 300, often
# near 1 so that values near the pole are reached
_CENTERS = st.tuples(st.floats(-10, 10), st.floats(-10, 10),
                     st.one_of(st.integers(-3, 1), st.integers(-300, 300)))
# a point: (center index, offset in units of 1e-5, direction)
_MEMBERS = st.tuples(st.integers(0, 2), st.sampled_from([0, 1, 2, 3, -1]), _DIRECTIONS)


@st.composite
def cross_ratio_inputs(draw):
    """Precision, the position of inf (or None) and four point recipes over
    up to three cluster centers, resolved at that precision."""
    return (draw(st.sampled_from([53, 128, 256])),
            draw(st.sampled_from([None, 0, 1, 2, 3])),
            draw(st.lists(_CENTERS, min_size=3, max_size=3)),
            draw(st.lists(_MEMBERS, min_size=4, max_size=4)))


@settings(max_examples=600, deadline=None)
@given(cross_ratio_inputs())
def test_cross_ratio_lambda_meets_its_accuracy_contract(inputs):
    """cross_ratio_lambda, and on pairwise-distinct points its unchecked
    kernel, against the cross-ratio formula at twice the working precision:
    colliding points raise the collision error; any other value is off by
    at most one unit of 2^-prec of its modulus, and a value near the pole is
    finite, and close to inf as the reference value's chordal distance
    says, outside the rounding."""
    bits, inf_at, centers, members = inputs
    saved = mp.prec
    mp.prec = bits
    try:
        # divided by 3 so the mantissas are full at the working precision
        bases = [mpc(re, im) * mpf(10) ** k / 3 for re, im, k in centers]
        points = [bases[index] + step * mpf("1e-5") * mpc(direction)
                  for index, step, direction in members]
        if inf_at is not None:
            points[inf_at] = INFINITY
        got = _outcome(cross_ratio_lambda, points)
        pair = first_collision(points)
        if pair is not None:
            assert got == ("raise", CollidingPoints, "points %s and %s coincide within "
                           "tolerance" % tuple(format_point(points[k]) for k in pair))
            return
        assert _outcome(numerics.cross_ratio_unchecked, points) == got
        assert got[0] == "value"
        want, value = cross_ratio_at_twice_the_precision(points), mp.make_mpc(got[1])
        with mp.workprec(2 * bits):
            assert abs(value - want) <= mpf(2) ** -bits * abs(want)
        distance = chordal(want, INFINITY)
        if abs(distance - epsilon()) > epsilon() * mpf(2) ** (8 - bits):
            assert close(value, INFINITY) == (distance <= epsilon())
    finally:
        mp.prec = saved


# a cluster center for the exact kernel: (a + bi) 2^k / 3 for integers a and
# b, so that the parts are full mantissas whose exponents lie within the
# kernel's exact span at every precision drawn
_EXACT_CENTERS = st.tuples(st.integers(-99, 99), st.integers(-99, 99), st.integers(-40, 40))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([53, 128, 256]), st.sampled_from([None, 0, 1, 2, 3]),
       st.lists(_EXACT_CENTERS, min_size=3, max_size=3),
       st.lists(_MEMBERS, min_size=4, max_size=4))
def test_cross_ratio_is_the_exact_value_rounded_once(bits, inf_at, centers, members):
    """On pairwise-distinct points, each part of cross_ratio_unchecked is the
    exact cross-ratio of the given points, rounded once to the working
    precision, nearest-even; members of a cluster lie 2^-17 apart, so their
    differences cancel most of their bits."""
    saved = mp.prec
    mp.prec = bits
    try:
        bases = [mpc(a, b) * mpf(2) ** k / 3 for a, b, k in centers]
        points = [bases[index] + step * mpf(2) ** -17 * mpc(direction)
                  for index, step, direction in members]
        if inf_at is not None:
            points[inf_at] = INFINITY
        assume(first_collision(points) is None)
        exact = [None if is_infinity(p) else GaussianRational.of(p) for p in points]
        want = rounded_once(exact_cross_ratio(*exact), bits)
        assert numerics.cross_ratio_unchecked(*points)._mpc_ == want
    finally:
        mp.prec = saved


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.25"])
@pytest.mark.parametrize("bits", [53, 128, 256])
def test_cross_ratio_pole_rule_at_the_boundary(eps, bits):
    """Cross-ratios near the pole: the last finite point v at chordal
    distance epsilon * (1 -/+ 2^-30) from 0, so that 1/v, the value with
    inf second or first, lies as far from inf; inf in each position that
    leaves a factor.  The value is finite, and admissibility names it as
    too close to inf exactly when its chordal distance from inf, at twice
    the precision, is within epsilon."""
    saved = mp.prec
    mp.prec = bits
    numerics.set_epsilon(eps)
    try:
        decisions = set()
        for v in chordal_boundary_values(0):
            for points in ([mpc(0), mpc(1), mpc(3), v / 2], [mpc(0), INFINITY, mpc(1), v],
                           [mpc(0), mpc(1), INFINITY, v], [mpc(1), mpc(0), v, INFINITY],
                           [INFINITY, mpc(0), v, mpc(1)]):
                got = _outcome(numerics.cross_ratio_unchecked, points)
                assert got[0] == "value"
                inside = chordal(mp.make_mpc(got[1]), INFINITY) <= epsilon()
                decisions.add(inside)
                answer = _outcome(legendre.require_admissible, [mp.make_mpc(got[1])])
                assert answer[0] == ("raise" if inside else "value")
                assert not inside or answer[2].endswith("(too close to inf)")
        assert decisions == {True, False}
    finally:
        mp.prec = saved


_PLANE = st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))
# a value anywhere, or (anchor index, step in units of epsilon, direction):
# just outside (twice as often, so that most roots are admitted) or just
# inside epsilon of an anchor
_ROOT_STEPS = st.sampled_from([1 + 2 ** -30, 1 + 2 ** -30, 1 - 2 ** -30])
_ROOT_RECIPES = st.one_of(
    _PLANE, st.tuples(st.integers(0, 99), _ROOT_STEPS, _DIRECTIONS))


# lam and the earlier pair values: distinct lattice points other than 0 and
# 1, each part moved by at most 0.1, so 0.8 apart and at most 6 from 0:
# more than 0.01 apart in the chordal metric, and admissible at every
# epsilon drawn
_SITES = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda site: site not in ((0, 0), (1, 0)))
_JITTER = st.floats(-0.1, 0.1)


@st.composite
def solver_steps(draw):
    """One solver step: lam and the earlier pairs' values, then recipes for
    the root mu and its partner k mu, resolved at the epsilon in force."""
    count = 2 * draw(st.integers(0, 2)) + 1
    sites = draw(st.lists(_SITES, min_size=count, max_size=count, unique=True))
    values = [complex(a + draw(_JITTER), b + draw(_JITTER)) for a, b in sites]
    return values, draw(_ROOT_RECIPES), draw(_ROOT_RECIPES)


def _resolve_root(recipe, anchors):
    """A recipe's value: mu's anchors are 0, 1, lam and the earlier pair
    values, k mu's also mu."""
    if isinstance(recipe, complex):
        return mpc(recipe)
    index, step, direction = recipe
    return chordal_neighbour(anchors[index % len(anchors)], step, direction)


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.01"])
@settings(max_examples=300, deadline=None)
@given(solver_steps())
def test_admitted_root_leaves_its_oracle_points_distinct(eps, step):
    """The solvers' oracles run cross_ratio_unchecked because admission, the
    ReducibleParams that extends the pairs by (mu, k mu), has shown their
    four points distinct: when it succeeds, first_collision finds nothing
    in (inf, 0, mu, k mu) or (1, lam, mu, k mu), and the checked and
    unchecked cross-ratios agree."""
    values, mu_recipe, partner_recipe = step
    saved = epsilon()
    numerics.set_epsilon(eps)
    try:
        anchors = [mpc(0), mpc(1)] + [mpc(v) for v in values]
        lam, earlier = anchors[2], anchors[3:]
        pairs = tuple(zip(earlier[::2], earlier[1::2]))
        mu = _resolve_root(mu_recipe, anchors)
        partner = _resolve_root(partner_recipe, anchors + [mu])
        assume(not is_infinity(mu) and mu != 0 and not is_infinity(partner))
        ratio = partner / mu
        try:
            params = constructions.ReducibleParams(lam, pairs + ((mu, ratio * mu),))
        except legendre.InvalidDomain:
            return
        assert params.mu[-1] == (mu, ratio * mu)
        for points in ([INFINITY, mpc(0), mu, ratio * mu], [mpc(1), lam, mu, ratio * mu]):
            assert first_collision(points) is None
            assert _outcome(numerics.cross_ratio_unchecked, points) == _outcome(
                cross_ratio_lambda, points)
    finally:
        numerics.set_epsilon(saved)


def _admission(function, *args):
    """("value", the raw tuples of the params' values) or ("raise", message)."""
    try:
        params = function(*args)
    except legendre.InvalidDomain as exc:
        return "raise", str(exc)
    return "value", [value._mpc_ for value in params.flat()]


def _admit_pair(lam, pairs, pair):
    """The chain solver's admission of ``pair`` after the admitted (lam, pairs)."""
    legendre.admit_next(near_table([lam, *(v for p in pairs for v in p)]), pair, "p")
    return constructions.ReducibleParams.admitted(lam, pairs + (pair,))


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.01"])
@settings(max_examples=60, deadline=None)
@given(solver_steps())
def test_one_pair_admission_is_the_whole_tuple_validation(eps, step):
    """The solvers admit a root by checking only its pair (mu, k mu) against
    the tuple admitted so far: that gives the params of
    ReducibleParams(lam, pairs + ((mu, k mu),)), or its InvalidDomain
    message."""
    values, mu_recipe, partner_recipe = step
    saved = epsilon()
    numerics.set_epsilon(eps)
    try:
        anchors = [mpc(0), mpc(1)] + [mpc(v) for v in values]
        lam, earlier = anchors[2], anchors[3:]
        pairs = tuple(zip(earlier[::2], earlier[1::2]))
        mu = _resolve_root(mu_recipe, anchors)
        partner = _resolve_root(partner_recipe, anchors + [mu])
        assume(not is_infinity(mu) and mu != 0 and not is_infinity(partner))
        ratio = partner / mu
        want = _admission(constructions.ReducibleParams, lam, pairs + ((mu, ratio * mu),))
        event(want[0])
        assert _admission(_admit_pair, lam, pairs, (mu, ratio * mu)) == want
    finally:
        numerics.set_epsilon(saved)


# a parameter: (real, imaginary, decimal exponent) as for the cluster centers
_PARAMETERS = st.tuples(st.floats(-10, 10), st.floats(-10, 10),
                        st.one_of(st.integers(-3, 3), st.integers(-300, 300)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([53, 128, 256]), _PARAMETERS, st.booleans())
def test_orbit_images_are_the_mpc_expressions(bits, parameter, real):
    saved = mp.prec
    mp.prec = bits
    try:
        re, im, k = parameter
        t = mpc(re, 0 if real else im) * mpf(10) ** k / 3
        assume(t != 0 and t != 1)
        want = [t, 1 / t, 1 - t, 1 / (1 - t), t / (t - 1), (t - 1) / t]
        assert legendre.orbit_images(t._mpc_) == [w._mpc_ for w in want]
    finally:
        mp.prec = saved


def _answer(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# offsets of a query from an orbit image, in units of epsilon
_ORBIT_STEPS = st.sampled_from([0, 0.5, 1 - 1e-6, 1 + 1e-6, 2, 1e6])


@settings(max_examples=150, deadline=None)
@given(st.lists(_PARAMETERS, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5), _ORBIT_STEPS,
                          _DIRECTIONS, st.integers(0, 2)), min_size=1, max_size=8))
def test_orbit_table_answers_same_curve(parameters, queries):
    """One table answers a run of queries as the close scan over s3_orbit
    does: near-orbit hits and misses, and inadmissible values on either
    side (0 and 1 are among the parameters' neighbours)."""
    values = [mpc(re, im) * mpf(10) ** k / 3 for re, im, k in parameters]
    values += [mpc(0), mpc(1)]
    table = legendre.OrbitTable()
    for owner, image, step, direction, other in queries:
        l1 = values[owner % len(values)]
        try:
            images = [l1, 1 / l1, 1 - l1, 1 / (1 - l1), l1 / (l1 - 1), (l1 - 1) / l1]
        except ZeroDivisionError:
            images = [l1]
        l2 = chordal_neighbour(images[image % len(images)], step, direction)
        if other == 1:
            l1, l2 = l2, l1
        elif other == 2:
            l2 = values[(owner + 1) % len(values)]
        want = _answer(same_curve_by_scan, l1, l2)
        assert _answer(table.same_curve, l1, l2) == want
        assert _answer(legendre.same_curve, l1, l2) == want


# a sample point: (kind, real numerator, imaginary numerator, denominator);
# thirds and the like fill the whole mantissa at every precision
_SAMPLES = st.tuples(st.sampled_from(["mpc", "complex", "str"]),
                     st.integers(-200, 200), st.integers(-200, 200),
                     st.integers(1, 97))


def _sample(kind, re, im, q):
    if kind == "mpc":
        return mpc(re, im) / q
    if kind == "complex":
        return complex(re / q, im / q)
    return "%d/%d%+d/%di" % (re, q, im, q)


@st.composite
def identity_cases(draw):
    """Precision, s, a parameter seed, the positions of a shuffled nonempty
    subset of the 2^(s-1) - 1 equations, and sample recipes."""
    s = draw(st.integers(3, 7))
    count = (1 << (s - 1)) - 1
    return (draw(st.sampled_from([53, 128, 256])), s, draw(st.integers(0, 2 ** 32)),
            draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count,
                          unique=True)),
            draw(st.lists(_SAMPLES, min_size=1, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(identity_cases())
def test_sampled_identity_errors_match_reference_on_any_equation_subset(case):
    bits, s, seed, positions, recipes = case
    saved = mp.prec
    mp.prec = bits
    try:
        draw = [v / 3 for v in random_admissible(random.Random(seed), 2 * s - 3)]
        params = constructions.ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        equations = constructions.derive_equations_reducible(params)
        subset = [equations[k] for k in positions]
        samples = [_sample(*recipe) for recipe in recipes]
        assert within_error_contract(
            constructions.sampled_identity_errors(params, subset, samples),
            _sampled_errors_one_form_product_per_equation(params, subset, samples))
    finally:
        mp.prec = saved


# sample kinds for the bit-identity property: full parts, one part zero, a
# -0.0 part, or parts 2^600 apart (which exercises the shared exponent's
# shift); a dyadic denominator leaves short mantissas, whose products meet
# rounding ties
_KERNEL_SAMPLES = st.tuples(st.sampled_from(["full", "real", "imaginary", "-0.0", "apart"]),
                            st.integers(-200, 200), st.integers(-200, 200),
                            st.integers(1, 97))


def _kernel_sample(kind, re, im, q, scale):
    if kind == "-0.0":
        return complex(-0.0, im / q * scale) if re & 1 else complex(re / q * scale, -0.0)
    z = mpc(re, im) / q * scale
    if kind == "real":
        return z.real
    if kind == "imaginary":
        return mpc(0, z.imag)
    if kind == "apart":
        return mpc(z.real * mpf(2) ** 600, z.imag) if re & 1 else mpc(z.real, z.imag / 2 ** 600)
    return z


@st.composite
def kernel_cases(draw):
    """Precision, s, a parameter scale and kind (full, real or imaginary
    parameters), a seed, the positions of a shuffled nonempty subset of the
    equations, and sample recipes."""
    s = draw(st.integers(3, 7))
    count = (1 << (s - 1)) - 1
    return (draw(st.sampled_from([53, 97, 128, 256, 1024, 1100])), s,
            draw(st.sampled_from([1e-30, 1e-7, 1.0, 1.0, 3e40, 1e150, 1e250])),
            draw(st.sampled_from(["full", "real", "imaginary"])), draw(st.integers(0, 2 ** 32)),
            draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count,
                          unique=True)),
            draw(st.lists(_KERNEL_SAMPLES, min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
@example((128, 5, 1.0, "real", 0, [0, 3, 14], [("real", 3, 0, 4), ("full", 7, -5, 8)]))
@example((53, 4, 1e250, "full", 1, [0, 6], [("apart", 3, 5, 3), ("-0.0", 1, 9, 7)]))
def test_sampled_identity_errors_equal_the_two_part_kernel(case):
    """The same doubles as the kernel on two (mantissa, exponent) parts per
    value: each part is rounded by one rule that depends on its value only.
    The parameters are admitted under a tolerance below their scale."""
    bits, s, scale, kind, seed, positions, recipes = case
    saved, saved_eps = mp.prec, epsilon()
    mp.prec = bits
    numerics.set_epsilon("1e-400")
    try:
        draw = [v / 3 * scale for v in random_admissible(random.Random(seed), 2 * s - 3)]
        if kind != "full":
            draw = [mpc(v.real) if kind == "real" else mpc(0, v.imag) for v in draw]
        params = constructions.ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        equations = constructions.derive_equations_reducible(params)
        subset = [equations[k] for k in positions]
        samples = [_kernel_sample(*recipe, scale) for recipe in recipes]
        assert constructions.sampled_identity_errors(params, subset, samples) == \
            sampled_identity_errors_reference(params, subset, samples)
    finally:
        mp.prec = saved
        numerics.set_epsilon(saved_eps)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([53, 128, 256]), st.integers(3, 9), st.integers(0, 2 ** 32))
def test_equations_agree_with_quotient_branch_sets_for_every_s(bits, s, seed):
    """The roots of the equation with pattern alpha are 1/(p - pivot) over
    the branch points p of build_reducible(params) that pair oddly with
    alpha_to_functional(alpha): inf maps to 0 and the pivot is dropped (it
    maps to inf, which leaves an odd number of roots)."""
    saved = mp.prec
    mp.prec = bits
    try:
        draw = [v / 3 for v in random_admissible(random.Random(seed), 2 * s - 3)]
        params = constructions.ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        model = constructions.build_reducible(params)
        pivot = params.mu[-1][1]
        equations = constructions.derive_equations_reducible(params)
        assert len(equations) == (1 << (s - 1)) - 1
        for eq in equations:
            functional = constructions.alpha_to_functional(eq.alpha)
            odd = [p for p, vector in model.branch if pairing(functional, vector)]
            finite = [p for p in odd if is_infinity(p) or p != pivot]
            assert (len(eq.roots) % 2 == 1) == (len(finite) < len(odd))
            got = list(eq.roots)
            assert len(got) == len(finite)
            for p in finite:
                want = mpc(0) if is_infinity(p) else 1 / (p - pivot)
                k = min(range(len(got)), key=lambda i: abs(got[i] - want))
                assert abs(got.pop(k) - want) <= mpf(2) ** (4 - bits) * abs(want)
    finally:
        mp.prec = saved


_EDGE_PARTS = [-0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300, 2.5]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([53, 128, 256]), st.integers(3, 8), st.integers(0, 2 ** 32),
       st.lists(st.tuples(st.sampled_from(_EDGE_PARTS), st.sampled_from(_EDGE_PARTS)),
                max_size=6),
       st.integers(1, 4))
@example(53, 4, 0, [(-0.0, 1e300), (1e-300, -0.0), (-1e300, -1e-300)], 1)
@example(256, 8, 1, [(-0.0, -0.0), (1e300, 1e300)], 3)
def test_render_system_matches_the_per_root_reference(bits, s, seed, edges, stride):
    """A derived system renders as the per-root reference does, also when
    every stride-th distinct root object and constant is replaced by a value
    with parts of -0.0 or of size 1e+-300 (the root objects stay shared)."""
    saved = mp.prec
    mp.prec = bits
    try:
        draw = random_admissible(random.Random(seed), 2 * s - 3)
        params = constructions.ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        equations = constructions.derive_equations_reducible(params)
        distinct = list({id(r): r for eq in equations for r in eq.roots}.values())
        swaps = {id(r): mpc(*edges[i % len(edges)])
                 for i, r in enumerate(distinct) if edges and i % stride == 0}
        equations = [eq._replace(
            constant=mpc(*edges[k % len(edges)]) if edges and k % stride == 0 else eq.constant,
            roots=tuple(swaps.get(id(r), r) for r in eq.roots))
            for k, eq in enumerate(equations)]
        assert cli.render_system(equations) == list(map(render_curve_equation_reference,
                                                        equations))
    finally:
        mp.prec = saved


@SETTINGS
@given(st.integers(0, 2 ** 32))
def test_factor_curves_with_an_infinite_root_render_per_root(seed):
    """decompose's factor equations from one term table per model read as
    each root formatted on its own, with inf dropped; the first point of
    every random model is inf, so some factor holds it."""
    model = random_cover_model(random.Random(seed))
    terms = cli.root_terms(model.points, "x")
    curves = [curve for _, curve in decompose(model).factors]
    assert any(curve.deleted_infinity for curve in curves)
    for curve in curves:
        assert cli.render_equation("y^2 = 1", curve.roots, terms) == \
            render_factor_curve_reference(curve)


_ROUNDING_PRECISIONS = [53, 97, 128, 256]


def _gsub(p, q, prec):
    # the kernel's differences: p plus q negated
    return constructions._gadd(p, (-q[0], -q[1], q[2]), prec)


# each kernel with the libmp operator that, at precision 0, gives its exact parts
_LIBMP = {"mul": (constructions._gmul, mpc_mul), "add": (constructions._gadd, mpc_add),
          "sub": (_gsub, mpc_sub)}


@st.composite
def _mpf_values(draw, prec):
    """A raw mpf: zero, or a signed mantissa of up to prec bits (or exactly
    prec) at an exponent within 300 of 0, so operand gaps reach far past
    100 bits."""
    kind = draw(st.sampled_from(["zero", "short", "full"]))
    if kind == "zero":
        return fzero
    low = 1 << (prec - 1) if kind == "full" else 1
    man = draw(st.integers(low, (1 << prec) - 1))
    return from_man_exp(man if draw(st.booleans()) else -man, draw(st.integers(-300, 300)))


@st.composite
def _halfway_pairs(draw, prec):
    """(x, y), x a prec-bit value of either parity and y half its last
    place, of either sign: x + y lies exactly between two neighbours."""
    man = draw(st.integers(1 << (prec - 2), (1 << (prec - 1)) - 1)) * 2 + draw(st.integers(0, 1))
    exp = draw(st.integers(-300, 300))
    x = from_man_exp(man if draw(st.booleans()) else -man, exp)
    return x, from_man_exp(1 if draw(st.booleans()) else -1, exp - 1)


@st.composite
def rounding_cases(draw):
    """(prec, op, z, w) for op in mul, add and sub: random parts, or parts
    whose exact result lies halfway (z = (x, -y) times w = (1, 1) makes both
    parts of the product x + y and x - y)."""
    prec = draw(st.sampled_from(_ROUNDING_PRECISIONS))
    op = draw(st.sampled_from(sorted(_LIBMP)))
    if draw(st.booleans()):
        z = (draw(_mpf_values(prec)), draw(_mpf_values(prec)))
        w = (draw(_mpf_values(prec)), draw(_mpf_values(prec)))
    elif op == "mul":
        x, y = draw(_halfway_pairs(prec))
        z, w = (x, (y[0] ^ 1,) + y[1:]), (fone, fone)
    else:
        (x1, y1), (x2, y2) = draw(_halfway_pairs(prec)), draw(_halfway_pairs(prec))
        if op == "sub":
            y1, y2 = (y1[0] ^ 1,) + y1[1:], (y2[0] ^ 1,) + y2[1:]
        z, w = (x1, x2), (y1, y2)
    return prec, op, z, w


@settings(max_examples=250, deadline=None)
@given(rounding_cases())
def test_integer_arithmetic_rounds_each_exact_part_once(case):
    prec, op, z, w = case
    ours, libmp = _LIBMP[op]
    x, y, e = ours(numerics._gauss(z), numerics._gauss(w), prec)
    want = [mpf_pos(part, prec, round_nearest) for part in libmp(z, w, 0)]
    assert [from_man_exp(x, e), from_man_exp(y, e)] == want


@st.composite
def _gauss_values(draw, prec):
    """A complex value as _gauss gives it: each part zero or an odd signed
    mantissa of up to prec bits, at an exponent from the subnormal doubles
    to past the largest double, both at the lower exponent of the nonzero
    parts."""
    parts = []
    for _ in range(2):
        if draw(st.integers(0, 9)) == 0:
            parts.append(fzero)
            continue
        man = draw(st.integers(0, (1 << (prec - 1)) - 1)) * 2 + 1
        parts.append(from_man_exp(man if draw(st.booleans()) else -man,
                                  draw(st.integers(-1500, 1200))))
    return numerics._gauss(tuple(parts))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([53, 128, 1024, 1100]).flatmap(
    lambda prec: st.tuples(_gauss_values(prec), _gauss_values(prec))))
def test_error_step_is_within_its_contract_of_the_exact_quotient(case):
    # _error against |d| / (1 + |raw|) of the same d and raw, evaluated at
    # a precision that holds every part exactly
    d, raw = case
    assume(d[0] or d[1])
    got = constructions._error(d, raw)
    saved = mp.prec
    mp.prec = 4000
    try:
        parts = [mpf(from_man_exp(m, z[2])) for z in (d, raw) for m in z[:2]]
        exact = abs(mpc(parts[0], parts[1])) / (1 + abs(mpc(parts[2], parts[3])))
        if got == math.inf:
            assert exact >= mpf(2) ** 1024 * (1 - mpf(2) ** -49)
        else:
            assert abs(got - exact) <= exact * mpf(2) ** -49 + mpf(2) ** -1074
    finally:
        mp.prec = saved


@pytest.mark.parametrize("prec", _ROUNDING_PRECISIONS)
def test_far_operand_sum_is_the_exact_rounding(prec):
    # a 2 prec-bit operand (an exact product) whose discarded half lies one
    # unit above the tie, minus a little over 2^lead at an exponent 102 bits
    # lower: with leading bits more than prec + 4 apart mpf_add perturbs
    # instead of subtracting and rounds up, while the exact difference
    # rounds down; at prec + 4 apart it subtracts.  _gadd rounds the exact
    # difference in every row.
    big = (1 << (2 * prec - 1)) | (1 << (prec - 1)) | 1
    for lead, perturbs in ((1, True), (prec - 6, True), (prec - 5, False)):
        small = -((1 << (lead + 102)) | 1)
        libmp = mpf_add(from_man_exp(big, 0), from_man_exp(small, -102), prec, round_nearest)
        exact = from_man_exp((big << 102) + small, -102, prec, round_nearest)
        assert (libmp != exact) == perturbs
        x, _, e = constructions._gadd((big, 0, 0), (small, 0, -102), prec)
        assert from_man_exp(x, e) == exact


_DIGITS = st.text("0123456789", min_size=1, max_size=6)


@st.composite
def decimals(draw):
    """A decimal: digits with an optional point and fraction, or a point and
    digits not all zero, with an optional exponent of up to two digits."""
    head, tail = draw(_DIGITS), draw(_DIGITS)
    forms = [head, head + ".", head + "." + tail]
    text = draw(st.sampled_from(forms + ["." + tail] if tail.strip("0") else forms))
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.text("0123456789", min_size=1, max_size=2)))
    return text


# a body: (p, None) for a decimal p, (p, q) for p/q
_BODIES = st.tuples(decimals(), st.none() | decimals())
_SIGNS = st.sampled_from(["", "+", "-"])


@st.composite
def grammar_literals(draw):
    """(text, terms, divisors): one term, or a real and an imaginary term in
    either order, each (sign, body or None, unit); then up to three
    parentheses from the inside out, each with a divisor (sign, body) or
    None; spaces inserted anywhere."""
    units = draw(st.sampled_from([[""], ["i"], ["", "i"], ["i", ""]]))
    terms = []
    for k, unit in enumerate(units):
        sign = draw(st.sampled_from(["+", "-"]) if k else _SIGNS)
        body = draw(st.none() | _BODIES) if unit else draw(_BODIES)
        terms.append((sign, body, unit))
    divisors = draw(st.lists(st.none() | st.tuples(_SIGNS, _BODIES), max_size=3))

    def body_text(body):
        return body[0] + ("" if body[1] is None else "/" + body[1])

    text = "".join(sign + (body_text(body) if body else "") + unit
                   for sign, body, unit in terms)
    for divisor in divisors:
        text = "(" + text + ")"
        if divisor is not None:
            text += "/" + divisor[0] + body_text(divisor[1])
    for k in sorted(draw(st.lists(st.integers(0, len(text)), max_size=4)), reverse=True):
        text = text[:k] + " " + text[k:]
    return text, terms, divisors


def _grammar_value(terms, divisors):
    """The literal's value from its parts, or the start of the message that
    rejects it: one mpf division per p/q and per divisor, innermost first,
    negation for "-", and the double range tested after each division."""
    def real(sign, body):
        p, q = body
        if q is not None and mpf(q) == 0:
            raise ZeroDivisionError
        value = mpf(p) if q is None else mpf(p) / mpf(q)
        return -value if sign == "-" else value

    def in_range(z):
        return not (math.isinf(float(z.real)) or math.isinf(float(z.imag)))

    try:
        parts = {unit: real(sign, body) if body else real(sign, ("1", None))
                 for sign, body, unit in terms}
        z = mpc(parts.get("", 0), parts.get("i", 0))
        if not in_range(z):
            return "literal"
        for divisor in divisors:
            if divisor is not None:
                d = real(*divisor)
                if d == 0:
                    raise ZeroDivisionError
                z = z / d
                if not in_range(z):
                    return "literal"
    except ZeroDivisionError:
        return "zero denominator"
    return z


@pytest.mark.parametrize("bits", [53, 128, 256])
@settings(max_examples=300, deadline=None)
@given(grammar_literals())
def test_parse_complex_reads_the_grammar(bits, literal):
    text, terms, divisors = literal
    numerics.set_precision(bits)
    want = _grammar_value(terms, divisors)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            numerics.parse_complex(text)
        assert str(info.value).startswith(want + " ")
    else:
        assert numerics.parse_complex(text)._mpc_ == want._mpc_


_LITERAL_CHARS = st.sampled_from(list("0123456789.eE+-/i() ") + ["inf", "nan", "_"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_LITERAL_CHARS, max_size=14).map("".join))
def test_parse_complex_rejects_with_a_grammar_message(text):
    """Any string over the literal alphabet parses to a value in the double
    range or is rejected with one of the grammar's messages."""
    try:
        z = numerics.parse_complex(text)
    except ValueError as exc:
        assert str(exc) == "empty complex literal" or str(exc).startswith((
            "malformed complex literal ", "repeated real part in ",
            "repeated imaginary part in ", "zero denominator in ", "literal "))
    else:
        assert not (math.isinf(float(z.real)) or math.isinf(float(z.imag)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LITERAL_CHARS, max_size=14).map("".join))
def test_set_epsilon_takes_a_grammar_body_or_names_epsilon(text):
    """Any string over the literal alphabet sets a tolerance in (0, 1) only
    when it is a body of the grammar, and is otherwise rejected with a
    message naming epsilon and the tolerance left as it was."""
    before = numerics.epsilon()
    try:
        numerics.set_epsilon(text)
    except ValueError as exc:
        assert "epsilon" in str(exc) and numerics.epsilon() == before
    else:
        assert numerics._NUMBER.fullmatch(text.strip()) and 0 < numerics.epsilon() < 1


# a part of a value to render: a double (signed zeros, subnormals, inf and
# nan included) times 2^k, so that some parts lie beyond the double range
# or round to a signed zero or a subnormal
_FORMAT_PARTS = st.tuples(st.floats(), st.sampled_from([0, 0, 0, -1030, -1080, -1100, 30, 1030]))


@pytest.mark.parametrize("bits", [53, 128])
@settings(max_examples=400, deadline=None)
@given(_FORMAT_PARTS, _FORMAT_PARTS)
@example((-0.0, 0), (5e-324, 0))
@example((1.0, 1100), (-1.0, 1100))
@example((-1.0, -1100), (-1.0, -1100))
def test_format_complex_matches_two_part_reference(bits, real, imag):
    saved = mp.prec
    mp.prec = bits
    try:
        z = mpc(*(mpf(x) * mpf(2) ** k for x, k in (real, imag)))
        assert _answer(numerics.format_complex, z) == _answer(format_complex_reference, z)
    finally:
        mp.prec = saved


_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té\u2028😀'),
                               st.characters()), max_size=6)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _JSON_TEXT,
                          st.floats(allow_nan=False, allow_infinity=False))
_JSON_RECORDS = st.dictionaries(_JSON_TEXT, _JSON_SCALARS, max_size=5)


@settings(max_examples=400, deadline=None)
@given(st.recursive(
    st.one_of(_JSON_SCALARS, _JSON_RECORDS, st.lists(_JSON_RECORDS, max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4),
                            st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=25))
def test_json_writer_writes_the_bytes_of_json_dumps(payload):
    out = io.StringIO()
    cli.write_json(payload, out.write)
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2)
