import random
import time

import pytest
from mpmath import mp, mpc, mpf, sqrt
from mpmath.libmp import from_int, mpf_div, round_nearest

from jacdecomp import numerics
from jacdecomp.numerics import (
    INFINITY,
    CollidingPoints,
    DegenerateLeadingCoefficient,
    MobiusMap,
    close,
    cross_ratio_lambda,
    cross_ratio_unchecked,
    epsilon,
    format_complex,
    format_point,
    is_infinity,
    parse_complex,
    near_entry,
    near_table,
    first_near,
    parse_point,
    set_epsilon,
    set_precision,
    solve_quadratic,
)

from helpers import (
    boundary_values,
    chordal,
    chordal_boundary_values,
    cross_ratio_at_twice_the_precision,
    random_admissible,
    random_mobius,
)


def chi(z1, z2, z3, z4):
    # classical cross-ratio of four finite points, used as an independent oracle
    return (z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))


def test_precision_default_is_high():
    assert mp.prec >= 128


def test_precision_floor():
    with pytest.raises(ValueError):
        set_precision(52)


def test_precision_cap():
    saved = mp.prec
    try:
        set_precision(numerics.PRECISION_MAX)
        assert mp.prec == numerics.PRECISION_MAX == 65536
        with pytest.raises(ValueError, match="capped at <= 65536 bits, got 65537"):
            set_precision(65537)
        assert mp.prec == 65536
    finally:
        mp.prec = saved


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        set_epsilon(0)


def test_epsilon_must_be_finite():
    before = epsilon()
    for bad in ("inf", float("inf"), "nan", float("nan")):
        with pytest.raises(ValueError):
            set_epsilon(bad)
    assert epsilon() == before


def test_epsilon_must_be_below_one():
    before = epsilon()
    for bad in (1, "1", "1.5", 2.5, "1e300"):
        with pytest.raises(ValueError, match="epsilon must be below 1, got %r$" % bad):
            set_epsilon(bad)
    assert epsilon() == before
    set_epsilon("0.999")
    assert epsilon() == mpf("0.999")


def test_mobius_identity_fixes_points():
    assert close(MobiusMap(1, 0, 0, 1).apply(mpc(5)), 5)


def test_non_finite_values_rejected():
    from jacdecomp.numerics import to_complex

    for bad in (float("nan"), float("inf"), complex(1, float("nan"))):
        with pytest.raises(ValueError):
            to_complex(bad)
    with pytest.raises(ValueError):
        to_complex(mpc(mpf("inf"), 0))


COERCION_INPUTS = [mpc(1, 2) / 3, mpf(1) / 3, 7, -2, complex(0.25, -1.5), 0.75, "0.75"]


def test_to_complex_matches_wrapping_every_input():
    from jacdecomp.numerics import to_complex

    def wrapped(x):
        return parse_complex(x) if isinstance(x, str) else mpc(x)

    for x in COERCION_INPUTS + ["2+3i", "(4+1.4142135623730951i)/3"]:
        got = to_complex(x)
        assert type(got) is mpc
        assert got._mpc_ == wrapped(x)._mpc_


def test_close_matches_wrapping_every_input():
    # offsets in units of epsilon (1 + |z|^2), the chordal scale at z
    eps = epsilon()
    near = [mpc(1, 2) / 3 + eps * 0.999 * 14 / 9, mpc(1, 2) / 3 + eps * 1.001 * 14 / 9,
            mpf(1) / 3 + mpc(0, eps) * 0.5 * 10 / 9, mpc(0.75), mpc(0.75) - eps * 2 * 25 / 16]
    for a in COERCION_INPUTS + near + [INFINITY]:
        for b in COERCION_INPUTS + near + [INFINITY]:
            assert close(a, b) == (chordal(a, b) <= eps)
    assert close(near[0], mpc(1, 2) / 3) and not close(near[1], mpc(1, 2) / 3)
    assert close(mpc(0.75), "0.75") and not close(near[-1], 0.75)


def test_close_treats_infinity_as_a_point():
    eps = epsilon()
    for z in chordal_boundary_values(INFINITY):
        assert close(z, INFINITY) == close(INFINITY, z) == (chordal(z, INFINITY) <= eps)
    assert close(INFINITY, INFINITY) and not close(INFINITY, 1e8)
    assert close(1e12, -1e12) and close(1e12, INFINITY) and not close(1e12, 0)
    # t -> 1/t is an isometry: 1e-12 is as close to 0 as 1e12 is to inf
    assert close(1e-12, 0) and not close(1e-8, 0) and not close(1e8, INFINITY)


def test_mobius_inversion_sends_infinity_to_zero():
    inv = MobiusMap(0, 1, 1, 0)
    assert close(inv.apply(INFINITY), 0)
    assert is_infinity(inv.apply(0))


def test_normalizing_map_fixes_one():
    # the genus-2 normalization fixes 1 for any admissible pair
    for l1, l2 in [(2, -1), (3, 5), (mpc(0.5, 1), mpc(-2, 0.25))]:
        l1, l2 = mpc(l1), mpc(l2)
        eta1 = (l1 - 1) / (l2 - 1)
        eta2 = l2 * (l1 - 1) / (l1 * (l2 - 1))
        m = MobiusMap(1 - eta1, -(1 - eta1) * eta2, 1 - eta2, -(1 - eta2) * eta1)
        assert close(m.apply(1), 1)


def test_mobius_singular_rejected():
    with pytest.raises(ValueError):
        MobiusMap(1, 2, 2, 4)


def test_mobius_bijection_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        m = random_mobius(rng)
        inv = MobiusMap(m.d, -m.b, -m.c, m.a)
        points = [INFINITY] + random_admissible(rng, 5)
        for p in points:
            assert close(inv.apply(m.apply(p)), p)


def test_is_involution_on_the_pairing_maps():
    # x -> l/x and x -> l(x - 1)/(x - l) are involutions; x -> 2x is not.  At
    # l = 1e-5 the squares have determinants near 1e-10, below the tolerance.
    for lam in (mpc(2), mpc(0.3, 1.1), mpc(-5, 0.25), mpf("1e-5")):
        assert MobiusMap(0, lam, 1, 0).is_involution()
        assert MobiusMap(lam, -lam, 1, -lam).is_involution()
    assert not MobiusMap(2, 0, 0, 1).is_involution()


def test_cross_ratio_already_normalized():
    assert close(cross_ratio_lambda(INFINITY, 0, 1, mpc(0.25, 3)), mpc(0.25, 3))
    assert close(cross_ratio_lambda(INFINITY, 0, 1, 2), 2)


def test_cross_ratio_swapped_first_two():
    # sending (0, inf, 1, t) to standard position composes with x -> 1/x
    for t in (mpc(5), mpc(2, 1), mpc(-0.75)):
        assert close(cross_ratio_lambda(0, INFINITY, 1, t), 1 / t)


def test_cross_ratio_matches_classical_formula():
    rng = random.Random(13)
    for _ in range(50):
        p1, p2, p3, p4 = random_admissible(rng, 4)
        assert close(cross_ratio_lambda(p1, p2, p3, p4), chi(p4, p3, p2, p1))


def test_cross_ratio_mobius_invariant():
    rng = random.Random(14)
    for _ in range(40):
        pts = random_admissible(rng, 4)
        m = random_mobius(rng)
        images = [m.apply(p) for p in pts]
        assert close(cross_ratio_lambda(*images), cross_ratio_lambda(*pts))


def test_cross_ratio_rejects_collisions():
    with pytest.raises(CollidingPoints):
        cross_ratio_lambda(INFINITY, 0, 1, 1 + 1e-12)


def test_cross_ratio_coincident_triple_collides():
    # no map sends three points that coincide within tolerance to (inf, 0, 1)
    with pytest.raises(CollidingPoints) as info:
        cross_ratio_lambda(0, 1e-12, 2e-12, 5)
    assert str(info.value).startswith("points 0 and ")


def test_cross_ratio_close_distinct_triple_is_finite():
    # p1, p2, p3 are distinct; the standard map's |ad - bc| = 2e-12 lies
    # within epsilon, but the cross-ratio (5 - 1e-4) 2e-4 / (5 1e-4) is finite
    assert close(cross_ratio_lambda(0, 1e-4, 2e-4, 5), mpf("1.99996"))


def test_cross_ratio_near_the_pole_is_inadmissible():
    # the fourth point lands near the pole of the standard map, |c z4 + d| =
    # 6e-10: the value is finite, within epsilon of inf, and admissibility
    # names it
    from jacdecomp.legendre import InvalidDomain, require_admissible

    value = cross_ratio_lambda(0, 1, 1 + 2e-5, 3e-5)
    assert not is_infinity(value) and close(value, INFINITY)
    with pytest.raises(InvalidDomain, match=r"too close to inf\)$"):
        require_admissible(value)


def test_collision_messages_name_first_pair():
    cases = [
        ((0, 1, 1 + 1e-12, 1), "points 1 and 1.0000000000010001 coincide within tolerance"),
        ((INFINITY, 0, 1, INFINITY), "points inf and inf coincide within tolerance"),
    ]
    for points, message in cases:
        with pytest.raises(CollidingPoints) as info:
            cross_ratio_lambda(*points)
        assert str(info.value) == message


def test_parse_complex_rejects_double_overflow():
    for bad in ("1e400", "-1e400", "2+1e309i", "(1e300+i)/1e-300"):
        with pytest.raises(ValueError, match="exceeds the double range"):
            parse_complex(bad)
    assert format_complex(parse_complex("1.5e308")) == "1.5e+308"


def test_format_rejects_parts_beyond_the_double_range():
    huge = mpf("5e309")
    for z in (mpc(huge), mpc(1, -huge), mpc(-huge, 2)):
        with pytest.raises(ValueError, match="exceeds the double range"):
            format_complex(z)
    assert format_point(mpc(-1.5e308, 2)) == "-1.5e+308+2i"


def test_solve_quadratic_simple():
    r1, r2 = solve_quadratic(1, 0, -1)
    assert close(r1, 1) and close(r2, -1)


def test_solve_quadratic_double_root():
    r1, r2 = solve_quadratic(1, -2, 1)
    assert close(r1, 1) and close(r2, 1)


def test_solve_quadratic_known_coefficients():
    # the (2, 3, 4) instance of the genus-3 solver quadratic
    root = sqrt(mpf(153))
    r1, r2 = solve_quadratic(12, -21, 6)
    assert close(r1, (21 + root) / 24)
    assert close(r2, (21 - root) / 24)


def test_solve_quadratic_residuals_and_vieta():
    rng = random.Random(16)
    for _ in range(50):
        a, b, c = (mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
        if abs(a) < 0.1:
            continue
        r1, r2 = solve_quadratic(a, b, c)
        for r in (r1, r2):
            assert abs(a * r * r + b * r + c) < epsilon() * (abs(a) + abs(b) + abs(c))
        assert close(r1 + r2, -b / a)
        assert close(r1 * r2, c / a)


def test_solve_quadratic_degenerate_leading():
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_quadratic(0, 1, 1)


def raises(function, *args):
    try:
        function(*args)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.25"])
def test_mobius_and_quadratic_tolerance_tests_at_the_boundary(eps):
    # The coefficient tests decide as the literal mpc rule |x| <= epsilon
    # max |term| does: x of modulus epsilon (1 -/+ 2^-30) against terms of
    # modulus 1.  At 256 bits, 1 - x keeps that offset at every epsilon.
    mp.prec = 256
    set_epsilon(eps)
    decisions = set()
    for x in boundary_values():
        inside = abs(x) <= epsilon()
        decisions.add(inside)
        ad, bc = mpc(1), 1 * (1 - x)                                     # ad - bc = x
        assert raises(MobiusMap, 1, 1, 1 - x, 1) == (
            abs(ad - bc) <= epsilon() * max(abs(ad), abs(bc)))
        assert raises(MobiusMap, x, 0, 0, 1) is False                    # z -> x z
        assert raises(solve_quadratic, x, 1, 1) == inside
    assert decisions == {True, False}
    # A point at chordal distance epsilon (1 -/+ 2^-30) from 0 maps to one
    # as far from inf: apply returns the finite value, which close compares
    # with INFINITY; only an exactly zero denominator gives INFINITY.
    decisions = set()
    for x in chordal_boundary_values(0):
        inside = chordal(x, 0) <= epsilon()
        decisions.add(inside)
        for image in (MobiusMap(1, 1, x, 1).apply(INFINITY),            # a / c = 1/x
                      MobiusMap(1, 1, 1, x).apply(0)):                   # cz + d = x
            assert not is_infinity(image)
            assert close(image, INFINITY) == inside
    assert decisions == {True, False}
    assert is_infinity(MobiusMap(1, 1, 0, 1).apply(INFINITY))
    assert is_infinity(MobiusMap(1, 1, 1, 0).apply(0))


def test_parse_complex_forms():
    assert close(parse_complex("2"), 2)
    assert close(parse_complex("-1.5"), -1.5)
    assert close(parse_complex("3/4"), 0.75)
    assert close(parse_complex("2+3i"), mpc(2, 3))
    assert close(parse_complex("1/2-3/4i"), mpc(0.5, -0.75))
    assert close(parse_complex("i"), mpc(0, 1))
    assert close(parse_complex("-2i"), mpc(0, -2))
    assert close(parse_complex("1e-3"), 0.001)
    assert close(parse_complex("(4+2i)/3"), mpc(mpf(4) / 3, mpf(2) / 3))
    assert is_infinity(parse_point("inf"))


def test_parse_complex_rejects_garbage():
    for bad in ("", "2+3", "2i+3i", "1//2", "(1+2i", "abc", "(2)/0", "(2)/inf", "(2+i)/nan",
                "(5)/1_000", "(2)/3i", "(2)/", "(2)/3/4/5", "(2)(3)", "2+", "-", "1/-2",
                "2+3+4i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_parse_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        z = mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
        text = format_complex(z)
        assert abs(parse_complex(text) - z) < 1e-12
    assert format_point(INFINITY) == "inf"
    assert format_complex(mpc(2)) == "2"
    assert format_complex(mpc(0, -1)) == "-1i"


def test_prefilter_reads_the_tolerance_set_last():
    saved = epsilon()
    try:
        for eps in ("0.25", "1e-30", "1e-9"):
            set_epsilon(eps)
            for center in (0, INFINITY):
                table = near_table([center])
                for z in chordal_boundary_values(center):
                    got = first_near(near_entry(z if is_infinity(z) else z._mpc_), table)
                    assert (got is not None) == (chordal(z, center) <= epsilon())
    finally:
        set_epsilon(saved)


@pytest.mark.parametrize("gap", [10 ** 6, 10 ** 9])
@pytest.mark.parametrize("bits", [53, 128, 256])
def test_cross_ratio_of_parts_far_apart_is_quick_and_meets_its_contract(gap, bits):
    """Points, and parts of one point, whose exponents lie gap bits apart:
    the cross-ratio takes under 50 ms, and is off by at most one unit of
    2^-bits of its modulus against the formula at twice the precision."""
    saved = mp.prec
    mp.prec = bits
    try:
        big, small = mp.ldexp(1, gap), mp.ldexp(1, -gap)
        third, fifth, seventh = mpf(1) / 3, mpf(1) / 5, mpf(1) / 7
        cases = [[mpc(1, 2) * big / 3, mpc(2, 1) / 3, mpc(-1, 5) / 7, mpc(1, -1) * small / 5],
                 [mpc(third, small / 7), mpc(2 * third, 1), mpc(big / 3, -fifth), mpc(-2, 3)],
                 [INFINITY, mpc(small / 3, 1), mpc(5 * third, -small / 7), mpc(-fifth, 2 * seventh)]]
        for points in cases:
            start = time.perf_counter()
            value = cross_ratio_unchecked(*points)
            assert time.perf_counter() - start < 0.05
            want = cross_ratio_at_twice_the_precision(points)
            with mp.workprec(2 * bits):
                assert abs(value - want) <= mpf(2) ** -bits * abs(want)
            assert cross_ratio_lambda(*points)._mpc_ == value._mpc_
    finally:
        mp.prec = saved


@pytest.mark.parametrize("bits", [53, 128, 256, 1100])
def test_rounded_quotient_is_mpf_div_of_the_integers(bits):
    """The exact kernel's one rounding step gives mpf_div's bits on the same
    integers: zero and negative numerators, exact quotients, d = 1 and
    random widths up to twice the precision and beyond."""
    rng = random.Random(bits)
    cases = [(0, 1), (0, 7), (1, 1), (-1, 1), (6, 3), (-6, 3), (3 << 200, 3), (-(5 << 77), 5 << 11),
             (7 * 11 ** 40, 11 ** 40), (12345, 1), (-(2 ** (bits + 9) + 1), 1),
             ((2 ** (bits + 1) - 1) << 3, 2), (1, 3), (-2, 3), (2 ** bits - 1, 2 ** bits)]
    for _ in range(300):
        n = rng.getrandbits(rng.randint(1, 3 * bits)) * rng.choice([1, -1])
        d = rng.getrandbits(rng.randint(1, 3 * bits)) or 1
        cases.append((n, d))
        cases.append((n * d, d))
    for n, d in cases:
        want = mpf_div(from_int(n), from_int(d), bits, round_nearest)
        assert numerics.rounded_quotient(n, d, bits) == want, (n, d)
