import random
from fractions import Fraction

import pytest
from mpmath import exp, mp, mpc, mpf, pi, sqrt

from jacdecomp import legendre, numerics
from jacdecomp.legendre import (
    InvalidDomain,
    OrbitTable,
    branch_set_pairing,
    orbit_images,
    require_admissible,
    require_admissible_tuple,
    s3_orbit,
    same_curve,
)
from jacdecomp.numerics import INFINITY, MobiusMap, NotInvolution, close, cross_ratio_lambda

from helpers import (
    GaussianRational,
    exact_j,
    exact_orbit,
    orbit_by_close_scan,
    random_admissible,
    same_curve_by_scan,
    sphere_gap,
)


def orbit_by_hand(lam, eps=1e-9):
    # independent closure: iterate the two generators to a fixed point
    found = [mpc(lam)]
    changed = True
    while changed:
        changed = False
        for v in list(found):
            for image in (1 / v, 1 - v):
                if all(abs(image - u) > eps for u in found):
                    found.append(image)
                    changed = True
    return found


def match_multiset(got, want, eps=1e-9):
    remaining = list(want)
    for g in got:
        hit = next((i for i, w in enumerate(remaining) if abs(g - w) < eps), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return not remaining


def test_admissibility():
    with pytest.raises(InvalidDomain):
        require_admissible(1)
    with pytest.raises(InvalidDomain):
        require_admissible(0)
    with pytest.raises(InvalidDomain):
        require_admissible_tuple([2, 2 + 1e-12])
    require_admissible_tuple([2, 3, mpc(0, 1)])


def test_tuple_collision_message_names_first_pair():
    with pytest.raises(InvalidDomain) as info:
        require_admissible_tuple([2, 3, 2 + 1e-12, 3])
    assert str(info.value) == "lambda_1 and lambda_3 coincide within tolerance (2)"
    with pytest.raises(InvalidDomain) as info:
        require_admissible_tuple([mpc(2, 1), 3, 3 - 1e-10j], name="p")
    assert str(info.value) == "p_2 and p_3 coincide within tolerance (3)"


def test_value_beyond_the_double_range_is_too_close_to_inf():
    for value, shown in [(mpc("1e400"), "1.0e+400"), (mpc("-1e400", "-2e30"), "-1.0e+400-2.0e+30i")]:
        with pytest.raises(InvalidDomain) as info:
            require_admissible(value)
        assert str(info.value) == "lambda = %s is not admissible (too close to inf)" % shown


def test_orbit_of_two():
    orbit = s3_orbit(2)
    assert match_multiset(orbit, [mpc(2), mpc(0.5), mpc(-1)])


def test_orbit_of_three():
    want = [mpf(3), mpf(1) / 3, mpf(-2), mpf(-0.5), mpf(1.5), mpf(2) / 3]
    assert match_multiset(s3_orbit(3), [mpc(w) for w in want])


def test_orbit_sixth_root_has_size_two():
    lam = exp(mpc(0, 1) * pi / 3)
    orbit = s3_orbit(lam)
    assert len(orbit) == 2
    assert match_multiset(orbit, [lam, 1 / lam])


def test_orbit_sizes_generic():
    rng = random.Random(21)
    for lam in random_admissible(rng, 30):
        assert len(s3_orbit(lam)) in (2, 3, 6)


def test_orbit_matches_independent_closure():
    rng = random.Random(22)
    for lam in random_admissible(rng, 20):
        assert match_multiset(s3_orbit(lam), orbit_by_hand(lam))


def test_j_invariant_values():
    # 256 (4 - 2 + 1)^3 / (4 * 1) = 1728 on the orbit of 2, exactly
    for t in (2, -1, Fraction(1, 2)):
        assert exact_j(GaussianRational(t)) == 1728
    assert exact_j(GaussianRational(3)) != 1728


def test_j_invariant_constant_on_orbits():
    # s3_orbit lists values near the exact images of a Gaussian-rational t,
    # and the exact j is the same on all of them
    rng = random.Random(23)
    for _ in range(200):
        t = GaussianRational(*(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                               for _ in range(2)))
        if t == 0 or t == 1:
            continue
        images = exact_orbit(t)
        assert len({exact_j(w) for w in images}) == 1
        for value in s3_orbit(t.to_mpc()):
            assert any(close(value, w.to_mpc()) for w in images)


def test_same_curve_examples():
    assert same_curve(2, -1)
    assert not same_curve(2, 3)
    assert same_curve(mpc(2, 1), mpc(2, 1))


def test_same_curve_is_equivalence():
    rng = random.Random(24)
    for lam in random_admissible(rng, 20):
        assert same_curve(lam, lam)
        orbit = s3_orbit(lam)
        pick = orbit[rng.randrange(len(orbit))]
        assert same_curve(lam, pick) and same_curve(pick, lam)
        second = s3_orbit(pick)[rng.randrange(len(s3_orbit(pick)))]
        assert same_curve(lam, second)


def test_lambda_of_quartic_normalized():
    assert close(cross_ratio_lambda(INFINITY, 0, 1, mpc(7, 2)), mpc(7, 2))


def test_lambda_of_quartic_reordering_stays_in_orbit():
    rng = random.Random(25)
    for _ in range(25):
        pts = random_admissible(rng, 4)
        base = cross_ratio_lambda(*pts)
        rng.shuffle(pts)
        assert same_curve(base, cross_ratio_lambda(*pts))


def test_pairing_reciprocal_set():
    m = MobiusMap(0, 2, 1, 0)  # x -> 2/x
    result = branch_set_pairing(m, [INFINITY, 0, 1, 2, 5, mpf(2) / 5])
    assert result.ok
    assert len(result.pairs) == 3


def test_pairing_pairs_expected_points():
    m = MobiusMap(0, 2, 1, 0)
    result = branch_set_pairing(m, [INFINITY, 0, 1, 2, 5, mpf(2) / 5])
    for a, b in result.pairs:
        image = m.apply(a)
        assert (image is INFINITY and b is INFINITY) or close(image, b)


def test_pairing_failure_at_fixed_point():
    result = branch_set_pairing(MobiusMap(0, 1, 1, 0), [mpc(1), mpc(2)])
    assert not result.ok
    assert close(result.offender, 1)


def test_pairing_failure_when_image_leaves_set():
    result = branch_set_pairing(MobiusMap(0, 2, 1, 0), [mpc(2), mpc(5)])
    assert not result.ok


def test_pairing_rejects_non_involution():
    with pytest.raises(NotInvolution):
        branch_set_pairing(MobiusMap(1, 1, 0, 1), [mpc(0), mpc(2)])


def test_pairing_genus13_example_set():
    # second involution acting on the genus-13 family's second 6-point set
    from mpmath import sqrt

    l1 = mpc(2)
    l2 = (4 + mpc(0, 1) * sqrt(2)) / 3
    l4 = l1 * (l2 - 1) / (l2 - l1)
    m = MobiusMap(l1, -l1, 1, -l1)
    result = branch_set_pairing(m, [INFINITY, mpc(0), mpc(1), l1, l2, l4])
    assert result.ok
    assert len(result.pairs) == 3


# Parameters where the double copies of the orbit images are stressed: |t|
# at the ends of their stated range [2^-1000, 2^1000] and just beyond it,
# |1 - t| within a few epsilon, and the points whose orbits have fewer than
# six images (-1, 1/2, 2 and e^(+-i pi/3)) moved so that two images lie
# epsilon (1 -/+ 2^-30) apart.
_DIRECTIONS = [1, -1, 1j, mpc(3, 4) / 5]
_SIXTH = exp(mpc(0, 1) * pi / 3)


def _stressed_parameters():
    eps = numerics.epsilon()
    cases = []
    for k in (-1001, -1000, -999, 999, 1000, 1001):
        for direction in _DIRECTIONS:
            for nudge in (0, -1, 1):
                cases.append(mpf(2) ** k * (1 + nudge * mpf(2) ** -30) * mpc(direction))
    for steps in (2, 3, 5):
        cases += [1 + steps * eps * mpc(direction) for direction in _DIRECTIONS]
    # at t the pair of images that meet moves apart at 2 (for -1, 1/2 and 2)
    # or sqrt(3) (for the sixth roots) times the displacement of t
    for center, rate in [(-1, 2), (mpf(1) / 2, 2), (2, 2),
                         (_SIXTH, sqrt(3)), (1 / _SIXTH, sqrt(3))]:
        for scale in (1, 1 / mpf(rate)):
            for sign in (-1, 1):
                for direction in _DIRECTIONS:
                    shift = scale * eps * (1 + sign * mpf(2) ** -30) * mpc(direction)
                    cases.append(center + shift)
    return cases


@pytest.fixture
def tiny_epsilon():
    """An epsilon below 2^-1000, so that parameters of that size are admissible."""
    saved = numerics.epsilon()
    numerics.set_epsilon(mpf(2) ** -1040)
    try:
        yield
    finally:
        numerics.set_epsilon(saved)


def _answer(function, *args):
    try:
        return function(*args)
    except InvalidDomain as exc:
        return str(exc)


def _check_orbit(t):
    if isinstance(_answer(require_admissible, t), str):
        return
    orbit = s3_orbit(t)
    assert [w._mpc_ for w in orbit] == [w._mpc_ for w in orbit_by_close_scan(t)]
    table = OrbitTable()
    eps = numerics.epsilon()
    for image in orbit_images(t._mpc_):
        for step in (0, 1 - mpf(2) ** -30, 1 + mpf(2) ** -30):
            for direction in _DIRECTIONS[:2]:
                query = mp.make_mpc(image) + step * eps * mpc(direction)
                want = _answer(same_curve_by_scan, t, query)
                assert _answer(table.same_curve, t, query) == want


@pytest.mark.parametrize("eps", ["1e-9", "0.25"])
def test_orbit_table_matches_close_scan_at_stressed_parameters(eps):
    saved = numerics.epsilon()
    numerics.set_epsilon(eps)
    try:
        for t in _stressed_parameters():
            _check_orbit(t)
    finally:
        numerics.set_epsilon(saved)


def test_orbit_table_matches_close_scan_at_extreme_moduli(tiny_epsilon):
    for t in _stressed_parameters():
        _check_orbit(t)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_orbit_copies_lie_within_their_stated_bound(bits, tiny_epsilon):
    """Each kept entry has its sphere copy within 2^-48 of its image's point
    on the unit sphere, at moduli up to 2^+-1100."""
    saved = mp.prec
    mp.prec = bits
    try:
        rng = random.Random(26)
        values = _stressed_parameters() + [
            mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) * mpf(2) ** rng.randint(-1100, 1100)
            for _ in range(300)]
        for t in values:
            if t == 0 or t == 1:
                continue
            for entry in legendre._orbit_entries(t._mpc_):
                assert sphere_gap(entry) <= mpf(2) ** -48
    finally:
        mp.prec = saved


def test_same_curve_scans_every_orbit_image():
    # two images of t lie within epsilon of each other and the query lies
    # within epsilon of only the second, so an orbit that dropped it answered
    # False for t and True for 1/t
    numerics.set_epsilon("0.1")
    t, query = mpf("-9.9498743617060555"), mpf("1.2234668241330209")
    assert same_curve(t, query)
    assert same_curve(1 / t, query)


def test_s3_orbit_returns_orbit_images_bits():
    rng = random.Random(27)
    for t in random_admissible(rng, 40) + [mpc(2), mpc(-1), mpc(0.5), _SIXTH]:
        images = orbit_images(t._mpc_)
        kept = [w._mpc_ for w in s3_orbit(t)]
        assert kept[0] == images[0]
        # kept images are orbit_images entries, in their order
        positions = [images.index(w) for w in kept]
        assert positions == sorted(positions)
