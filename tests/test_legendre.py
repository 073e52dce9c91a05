import random

import pytest
from mpmath import exp, mpc, mpf, pi

from jacdecomp.legendre import (
    InvalidDomain,
    branch_set_pairing,
    j_invariant,
    require_admissible,
    require_admissible_tuple,
    s3_orbit,
    same_curve,
)
from jacdecomp.numerics import INFINITY, MobiusMap, NotInvolution, close, cross_ratio_lambda

from helpers import random_admissible


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
    # 256 (1 - 2 + 4)^3 / (4 * 1) = 1728, and constant along the orbit
    assert close(j_invariant(2), 1728)
    assert close(j_invariant(-1), 1728)
    assert close(j_invariant(0.5), 1728)
    lam = exp(mpc(0, 1) * pi / 3)
    assert abs(j_invariant(lam)) < 1e-9


def test_j_invariant_constant_on_orbits():
    rng = random.Random(23)
    for lam in random_admissible(rng, 200):
        j = j_invariant(lam)
        for other in s3_orbit(lam):
            assert abs(j_invariant(other) - j) < 1e-9 * (1 + abs(j))


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
