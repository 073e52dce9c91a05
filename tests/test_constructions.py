import math
import random

import pytest
from mpmath import mp, mpc, mpf, sqrt

from jacdecomp import constructions as cons
from jacdecomp import legendre, numerics
from jacdecomp.constructions import (
    ConstraintViolated,
    DegenerateParameter,
    NoValidRoot,
    OutOfRange,
    ReducibleParams,
    build_genus2,
    build_irreducible,
    build_raw_fiber_product,
    build_reducible,
    chain_with_auxiliary,
    check_genus13_family,
    check_genus5_family,
    check_split_family,
    derive_equations_reducible,
    factor_lambda_invariant,
    genus9_parameters,
    genus_upper_bound,
    solve_mu_chain,
    solve_mu_genus3,
)
from jacdecomp.cover import component_count, component_genus, decompose, total_genus
from jacdecomp.legendre import InvalidDomain, OrbitTable, same_curve
from jacdecomp.numerics import (
    INFINITY,
    close,
    cross_ratio_lambda,
    is_infinity,
    set_precision,
)

from helpers import (
    GaussianRational,
    _sampled_errors_one_form_product_per_equation,
    boundary_values,
    exact_cross_ratio,
    genus9_involutions,
    random_admissible,
    rounded_once,
    within_error_contract,
)


def genus_one_invariants(report):
    return [factor_lambda_invariant(c) for _, c in report.factors if c.genus == 1]


def orbits_cover(invariants, targets):
    if len(invariants) < len(targets):
        return False
    for t in targets:
        if not any(same_curve(t, v) for v in invariants):
            return False
    return True


# Genus two


def test_build_genus2_known_values():
    equation, model = build_genus2(2, -1)
    assert close(equation.eta1, mpf(-0.5))
    assert close(equation.eta2, mpf(0.25))
    assert total_genus(model) == 2


def test_build_genus2_normalizing_map_recovers_parameters():
    rng = random.Random(51)
    for _ in range(20):
        l1, l2 = random_admissible(rng, 2)
        equation, _ = build_genus2(l1, l2)
        m = equation.normalizing_map()
        assert close(m.apply(1), 1)
        assert is_infinity(m.apply(equation.eta1))
        assert close(m.apply(equation.eta2), 0)
        assert close(m.apply(INFINITY), l1)
        assert close(m.apply(0), l2)


def test_build_genus2_factors_match_inputs():
    rng = random.Random(52)
    for _ in range(20):
        l1, l2 = random_admissible(rng, 2)
        _, model = build_genus2(l1, l2)
        report = decompose(model)
        assert len(report.factors) == 2
        invariants = genus_one_invariants(report)
        assert orbits_cover(invariants, [l1, l2])


def test_build_genus2_rejects_bad_domain():
    with pytest.raises(InvalidDomain):
        build_genus2(1, 2)
    with pytest.raises(InvalidDomain):
        build_genus2(2, 2)


# Reducible family


def test_reducible_params_validation():
    with pytest.raises(InvalidDomain):
        ReducibleParams(2, ())
    with pytest.raises(InvalidDomain):
        ReducibleParams(2, ((2, 3),))
    with pytest.raises(InvalidDomain):
        ReducibleParams(2, ((1, 3),))


def test_build_reducible_genus_values():
    rng = random.Random(53)
    for s, want in [(3, 3), (4, 9), (5, 25), (6, 65)]:
        draw = random_admissible(rng, 2 * s - 3)
        params = ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        assert total_genus(build_reducible(params)) == want
        assert 1 + (1 << (s - 2)) * (s - 2) == want


def test_raw_fiber_product_two_components():
    rng = random.Random(54)
    for s in (3, 4, 5, 6, 7, 8):
        draw = random_admissible(rng, 2 * s - 3)
        params = ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        raw = build_raw_fiber_product(params)
        assert raw.rank == s
        assert component_count(raw) == 2
        assert component_genus(raw) == total_genus(build_reducible(params))


# Equation derivation


def test_equation_count_and_alpha_parity():
    rng = random.Random(55)
    for s in (3, 4, 5):
        draw = random_admissible(rng, 2 * s - 3)
        params = ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        equations = derive_equations_reducible(params)
        assert len(equations) == (1 << (s - 1)) - 1
        for eq in equations:
            assert sum(eq.alpha) % 2 == 0 and sum(eq.alpha) > 0


def test_equation_value_at_zero():
    # all eliminated forms except the first coordinate's have unit constant
    rng = random.Random(56)
    draw = random_admissible(rng, 5)
    params = ReducibleParams(draw[0], ((draw[1], draw[2]), (draw[3], draw[4])))
    for eq in derive_equations_reducible(params):
        if eq.alpha[0] == 0:
            assert abs(eq.evaluate(0) - 1) < 1e-9
        else:
            assert abs(eq.evaluate(0)) < 1e-9


def test_equations_match_raw_form_products():
    rng = random.Random(57)
    for s in (3, 4, 5, 6):
        draw = random_admissible(rng, 2 * s - 3)
        params = ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        equations = derive_equations_reducible(params)
        samples = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
        errors = cons.sampled_identity_errors(params, equations, samples)
        assert max(errors) < 1e-9


def _equations_one_pattern_at_a_time(params):
    # reference loop: per exponent pattern, the selected coefficients are
    # multiplied in ascending coordinate order and every zero is divided out
    # afresh; returned as raw (alpha, constant, roots) tuples
    s = params.s
    groups = cons._coordinate_forms(params)
    out = []
    for functional in range(1, 1 << (s - 1)):
        alpha = cons.functional_to_alpha(functional, s)
        constant = mpc(1)
        roots = []
        for j, bit in enumerate(alpha):
            if bit:
                for const, coeff in groups[j]:
                    constant *= coeff
                    roots.append(-const / coeff)
        out.append((alpha, constant._mpc_, tuple(r._mpc_ for r in roots)))
    return out


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("s", [3, 4, 5, 6, 7, 8])
def test_derive_equations_reducible_is_bit_identical_to_per_pattern_products(s, bits):
    saved = mp.prec
    set_precision(bits)
    try:
        rng = random.Random(100 * s + bits)
        # dividing by 3 fills the whole mantissa at every precision
        draw = [v / 3 for v in random_admissible(rng, 2 * s - 3)]
        params = ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        got = [(eq.alpha, eq.constant._mpc_, tuple(r._mpc_ for r in eq.roots))
               for eq in derive_equations_reducible(params)]
        assert got == _equations_one_pattern_at_a_time(params)
    finally:
        mp.prec = saved


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("s", [3, 4, 5, 6, 7])
def test_sampled_identity_errors_meet_the_contract_of_per_equation_products(s, bits):
    set_precision(bits)
    rng = random.Random(1000 * s + bits)
    # dividing by 3 fills the whole mantissa at either precision
    draw = [v / 3 for v in random_admissible(rng, 2 * s - 3)]
    params = ReducibleParams(draw[0], tuple(
        (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
    equations = derive_equations_reducible(params)
    samples = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(18)]
    samples += [complex(0.25, -1.5), mpc(1, 2) / 7]
    got = cons.sampled_identity_errors(params, equations, samples)
    want = _sampled_errors_one_form_product_per_equation(params, equations, samples)
    assert within_error_contract(got, want)
    assert 0 < max(got) < 1e-30



@pytest.mark.parametrize("scale", [1e150, 1e300])
@pytest.mark.parametrize("s", [3, 5])
def test_sampled_identity_errors_meet_the_contract_far_outside_the_double_range(s, scale):
    # the forms, products and differences overflow any double copy, so the
    # error step must keep their exponents apart; the parameters lie within
    # 1e-150 of inf, so they are admitted under a tolerance below that
    numerics.set_epsilon("1e-400")
    rng = random.Random(2000 * s)
    draw = [v / 3 * scale for v in random_admissible(rng, 2 * s - 3)]
    params = ReducibleParams(draw[0], tuple(
        (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
    equations = derive_equations_reducible(params)
    samples = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) * scale for _ in range(20)]
    got = cons.sampled_identity_errors(params, equations, samples)
    assert within_error_contract(
        got, _sampled_errors_one_form_product_per_equation(params, equations, samples))
    assert 0 < max(got) < 1e-30


@pytest.mark.parametrize("bits", [1024, 1100])
def test_sampled_identity_errors_meet_the_contract_at_long_mantissas(bits):
    # from about 1,024 bits on the mantissas overflow a double and the
    # errors lie below the normal double range
    set_precision(bits)
    rng = random.Random(bits)
    draw = [v / 3 for v in random_admissible(rng, 7)]
    params = ReducibleParams(draw[0], ((draw[1], draw[2]), (draw[3], draw[4]),
                                       (draw[5], draw[6])))
    equations = derive_equations_reducible(params)
    samples = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    got = cons.sampled_identity_errors(params, equations, samples)
    assert within_error_contract(
        got, _sampled_errors_one_form_product_per_equation(params, equations, samples))


def test_sampled_identity_errors_beyond_the_double_range_are_inf():
    # equations of parameters scaled by 1e300 against the forms of the
    # unscaled ones: each error is about 1e300 to a power, as the reference
    # loop's float() of the mpc formula gives it; the scaled parameters lie
    # within 1e-300 of inf, so they are admitted under a tolerance below that
    numerics.set_epsilon("1e-400")
    draw = random_admissible(random.Random(5), 5)
    small, big = (ReducibleParams(v[0], ((v[1], v[2]), (v[3], v[4])))
                  for v in (draw, [x * 1e300 for x in draw]))
    equations = derive_equations_reducible(big)
    samples = [mpc(0.5, 0.25)]
    got = cons.sampled_identity_errors(small, equations, samples)
    assert got == [math.inf] * len(equations)
    assert got == _sampled_errors_one_form_product_per_equation(small, equations, samples)


def test_equations_match_closed_form_constants():
    rng = random.Random(58)
    for s in (3, 4, 5):
        draw = random_admissible(rng, 2 * s - 3)
        params = ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        for eq in derive_equations_reducible(params):
            want = cons.closed_form_constant(params, eq.alpha)
            assert abs(eq.constant - want) <= 1e-9 * (1 + abs(want))


def _closed_form_constant_per_equation(params, alpha):
    """The published product formula, each factor rebuilt per equation."""
    s = params.s
    pivot = params.mu[s - 3][1]
    value = mpc(1)
    if alpha[0]:
        value *= -pivot
    if alpha[1]:
        value *= (pivot - 1) * (pivot - params.lam)
    for k in range(1, s - 2):
        if alpha[k + 1]:
            a, b = params.mu[k - 1]
            value *= (pivot - a) * (pivot - b)
    if alpha[s - 1]:
        value *= pivot - params.mu[s - 3][0]
    return value


def test_closed_form_constants_are_the_per_equation_products():
    rng = random.Random(61)
    for s in (3, 4, 5, 6, 7):
        draw = [v / 3 for v in random_admissible(rng, 2 * s - 3)]
        params = ReducibleParams(draw[0], tuple(
            (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        alphas = [eq.alpha for eq in derive_equations_reducible(params)]
        got = cons.closed_form_constants(params, alphas)
        assert [v._mpc_ for v in got] == [
            _closed_form_constant_per_equation(params, alpha)._mpc_ for alpha in alphas]


def test_equations_agree_with_quotient_branch_sets():
    # roots of each equation are the transported branch values of the
    # matching index-two quotient
    rng = random.Random(59)
    draw = random_admissible(rng, 5)
    params = ReducibleParams(draw[0], ((draw[1], draw[2]), (draw[3], draw[4])))
    model = build_reducible(params)
    pivot = params.mu[-1][1]
    from jacdecomp.cover import quotient_equation

    for eq in derive_equations_reducible(params):
        functional = cons.alpha_to_functional(eq.alpha)
        curve = quotient_equation(model, functional)
        expected = []
        infinity_expected = False
        for point in curve.roots:
            if is_infinity(point):
                expected.append(mpc(0))  # x = inf maps to z = 0
            elif close(point, pivot):
                infinity_expected = True  # x = pivot maps to z = inf
            else:
                expected.append(1 / (point - pivot))
        got = list(eq.roots)
        assert (len(eq.roots) % 2 == 1) == infinity_expected
        assert len(got) == len(expected)
        for want in expected:
            hit = next((i for i, g in enumerate(got) if abs(g - want) < 1e-9), None)
            assert hit is not None
            got.pop(hit)


def test_reference_system_s3_matches_pipeline():
    rng = random.Random(60)
    for _ in range(10):
        l1, l2, l3 = random_admissible(rng, 3)
        mu = solve_mu_genus3(l1, l2, l3)
        params = ReducibleParams(l1, ((mu, l3 * mu),))
        equations = derive_equations_reducible(params)
        reference = cons.reference_system_s3(l1, l3, mu)
        comparisons = cons.compare_with_reference(equations, reference)
        assert len(comparisons) == 3
        assert all(c.ok for c in comparisons)


def test_reference_system_s4_matches_pipeline():
    rng = random.Random(61)
    for _ in range(5):
        draw = random_admissible(rng, 5)
        params = ReducibleParams(draw[0], ((draw[1], draw[2]), (draw[3], draw[4])))
        equations = derive_equations_reducible(params)
        reference = cons.reference_system_s4(
            params.lam, params.mu[0][0], params.mu[0][1],
            params.mu[1][0], params.mu[1][1])
        comparisons = cons.compare_with_reference(equations, reference)
        assert len(comparisons) == 7
        assert all(c.ok for c in comparisons)


def test_reference_s4_composite_equation():
    # the all-ones equation is the product of the (0,1,1,0) and (1,0,0,1) ones
    rng = random.Random(62)
    draw = random_admissible(rng, 5)
    params = ReducibleParams(draw[0], ((draw[1], draw[2]), (draw[3], draw[4])))
    equations = {eq.alpha: eq for eq in derive_equations_reducible(params)}
    z = mpc(0.37, -1.21)
    product = equations[(0, 1, 1, 0)].evaluate(z) * equations[(1, 0, 0, 1)].evaluate(z)
    composite = equations[(1, 1, 1, 1)].evaluate(z)
    assert abs(product - composite) < 1e-9 * (1 + abs(product))


# Genus-3 solver


def test_solve_mu_genus3_quadratic_instance():
    # coefficients for (2, 3, 4) are (12, -21, 6); both roots satisfy them
    mu = solve_mu_genus3(2, 3, 4)
    assert abs(12 * mu * mu - 21 * mu + 6) < 1e-9


def test_solve_mu_genus3_vieta_product():
    rng = random.Random(63)
    for _ in range(20):
        l1, l2, l3 = random_admissible(rng, 3)
        a = l2 * l3
        c = l1 * l2
        from jacdecomp.numerics import solve_quadratic

        b = -(l1 * l2 + l2 * l3 + l1 * l3 - l1 - l3 + 1)
        r1, r2 = solve_quadratic(a, b, c)
        assert close(r1 * r2, l1 / l3)


def test_solve_mu_genus3_oracles():
    rng = random.Random(64)
    for _ in range(20):
        l1, l2, l3 = random_admissible(rng, 3)
        mu = solve_mu_genus3(l1, l2, l3)
        assert same_curve(l2, cross_ratio_lambda(1, l1, mu, l3 * mu))
        assert same_curve(l3, cross_ratio_lambda(INFINITY, 0, mu, l3 * mu))


def test_solve_mu_genus3_decomposition_orbits():
    rng = random.Random(65)
    for _ in range(10):
        l1, l2, l3 = random_admissible(rng, 3)
        mu = solve_mu_genus3(l1, l2, l3)
        report = decompose(build_reducible(ReducibleParams(l1, ((mu, l3 * mu),))))
        assert len(report.factors) == 3
        assert all(c.genus == 1 for _, c in report.factors)
        assert orbits_cover(genus_one_invariants(report), [l1, l2, l3])


# Genus-9 family


def test_genus9_parameters_pairings():
    rng = random.Random(66)
    for _ in range(10):
        lam, mu = random_admissible(rng, 2)
        params = genus9_parameters(lam, mu)
        assert params.s == 4
        assert close(params.mu[0][0] * params.mu[0][1], lam)
        report = decompose(build_reducible(params))
        assert sorted(c.genus for _, c in report.factors) == [1, 1, 1, 1, 1, 1, 3]
        assert report.kani_rosen_ok


def test_genus9_split_count():
    rng = random.Random(67)
    lam, mu = random_admissible(rng, 2)
    report = check_split_family(build_reducible(genus9_parameters(lam, mu)),
                                genus9_involutions(lam))
    assert report.ok and report.elliptic_count == 9


def test_genus9_degenerate_square():
    with pytest.raises(DegenerateParameter):
        genus9_parameters(4, 2)  # mu^2 = lambda collapses the first pair


def test_derived_parameter_beyond_the_double_range_is_degenerate():
    # at epsilon 1e-400 lam = 1e300 and mu = 1e-300 are admissible, and the
    # derived lam/mu = 1e600, within epsilon of inf, is refused as a domain
    # error whose message renders it
    numerics.set_epsilon("1e-400")
    with pytest.raises(DegenerateParameter, match=r"1\.0e\+600 is not admissible"):
        genus9_parameters(mpf("1e300"), mpf("1e-300"))


def test_pair_beyond_the_double_range_gives_way_to_the_other_root():
    # roots 1e20 (tried first, descending real part) and 3, each admitted
    # with the pair (mu, 1e390 mu); at epsilon 1e-400 the first pair's 1e410
    # lies within epsilon of inf and the second's 3e390 does not
    numerics.set_epsilon("1e-400")
    big = mpf("1e20")
    params = cons._pick_root((1, -(big + 3), 3 * big),
                             lambda mu: ReducibleParams(mpc(2), ((mu, mpf("1e390") * mu),)),
                             [], OrbitTable(), "no root: ")
    assert abs(params.mu[0][0] - 3) < 1e-15


# Upper bound and chain solver


def test_genus_upper_bound_values():
    assert [genus_upper_bound(r) for r in range(4, 11)] == [9, 9, 25, 25, 65, 65, 161]


def test_genus_upper_bound_formula_range():
    for r in range(4, 65):
        want = 1 + (1 << ((r - 2) // 2)) * r if r % 2 == 0 \
            else 1 + (1 << ((r - 3) // 2)) * (r - 1)
        assert genus_upper_bound(r) == want


def test_genus_upper_bound_out_of_range():
    with pytest.raises(OutOfRange):
        genus_upper_bound(3)


def test_chain_matches_genus3_solver_up_to_orbits():
    rng = random.Random(68)
    for _ in range(5):
        l1, l2, l3 = random_admissible(rng, 3)
        params_chain = solve_mu_chain([l1, l2, l3])
        mu = solve_mu_genus3(l1, l2, l3)
        params_quad = ReducibleParams(l1, ((mu, l3 * mu),))
        inv_chain = genus_one_invariants(decompose(build_reducible(params_chain)))
        inv_quad = genus_one_invariants(decompose(build_reducible(params_quad)))
        for target in (l1, l2, l3):
            assert orbits_cover(inv_chain, [target])
            assert orbits_cover(inv_quad, [target])


def test_chain_r5_covers_all_orbits():
    rng = random.Random(69)
    for _ in range(5):
        targets = random_admissible(rng, 5)
        params = solve_mu_chain(targets)
        report = decompose(build_reducible(params))
        invariants = genus_one_invariants(report)
        assert len(invariants) >= 5
        assert orbits_cover(invariants, targets)


def test_chain_rejects_even_or_short_input():
    rng = random.Random(70)
    with pytest.raises(InvalidDomain):
        solve_mu_chain(random_admissible(rng, 4))
    with pytest.raises(InvalidDomain):
        solve_mu_chain(random_admissible(rng, 1))


def test_chain_with_auxiliary_padding():
    rng = random.Random(71)
    padded = chain_with_auxiliary([2, 3])
    assert len(padded) == 3
    assert close(padded[-1], -1)
    padded = chain_with_auxiliary([2, -1])
    assert close(padded[-1], mpf(-1.25))
    odd = random_admissible(rng, 5)
    assert chain_with_auxiliary(odd) == odd


def _pair_quadratic(l1, ratio, target):
    from jacdecomp.numerics import solve_quadratic

    a = ratio * (1 - target)
    b = target - ratio - l1 + l1 * ratio * target
    c = l1 * (1 - target)
    return solve_quadratic(a, b, c)


def test_chain_rejects_colliding_root_and_takes_the_other():
    # craft the fifth target so the second pair's first root collides with
    # the first pair's accepted value; the solver must fall through
    l1, l2, l3, l4 = mpf(2), mpf(3), mpf(4), mpf(5)
    w = _pair_quadratic(l1, l2, l4)[0]
    num = -l3 * w * w + (l1 + l3) * w - l1
    den = -l3 * w * w + (1 + l1 * l3) * w - l1
    l5 = num / den
    params = solve_mu_chain([l1, l2, l3, l4, l5])
    assert close(params.mu[0][0], w)
    assert not close(params.mu[1][0], w)
    bad, good = _pair_quadratic(l1, l3, l5)
    assert close(bad, w) and close(params.mu[1][0], good)


def test_chain_no_valid_root_when_both_roots_collide():
    # pin both roots of the second pair's quadratic to the first pair's values
    l1, l2, l4 = mpf(2), mpf(3), mpf(5)
    w1 = _pair_quadratic(l1, l2, l4)[0]
    w2 = l2 * w1
    l3 = l1 / (w1 * w2)
    total = w1 + w2
    nu = (l3 + l1 - total * l3) / (1 + l1 * l3 - total * l3)
    with pytest.raises(NoValidRoot) as info:
        solve_mu_chain([l1, l2, l3, l4, nu])
    assert str(info.value) == (
        "pair 2: no root passes the checks: "
        "p_3 and p_4 coincide within tolerance (6.5894541729001368); "
        "p_2 and p_4 coincide within tolerance (2.1964847243000456)")


def _failing_oracle(monkeypatch, failing_target):
    """Make the orbit oracle fail exactly for ``failing_target``; return the
    list of targets it is asked about, in call order."""
    calls = []

    def fake(table, target, value):
        calls.append(target)
        return not close(target, failing_target)
    monkeypatch.setattr(OrbitTable, "same_curve", fake)
    return calls


@pytest.mark.parametrize("failing, text", [
    (3, "orbit oracle for second factor failed at mu=%s"),
    (4, "orbit oracle for third factor failed at mu=%s"),
])
def test_solve_mu_genus3_oracle_failure_text(monkeypatch, failing, text):
    from jacdecomp.numerics import format_point, solve_quadratic

    l1, l2, l3 = mpf(2), mpf(3), mpf(4)
    roots = solve_quadratic(l2 * l3, -(l1 * l2 + l2 * l3 + l1 * l3 - l1 - l3 + 1),
                            l1 * l2)
    calls = _failing_oracle(monkeypatch, failing)
    with pytest.raises(NoValidRoot) as info:
        solve_mu_genus3(l1, l2, l3)
    assert str(info.value) == (
        "no quadratic root passes the domain and oracle checks: "
        + "; ".join(text % format_point(mu) for mu in roots))
    # the oracles run in order and stop at the first failure
    assert calls == ([3, 3] if failing == 3 else [3, 4, 3, 4])


@pytest.mark.parametrize("failing, text", [
    (4, "ratio oracle failed at pair 2"),
    (6, "target oracle failed at pair 2"),
])
def test_chain_oracle_failure_text(monkeypatch, failing, text):
    calls = _failing_oracle(monkeypatch, failing)
    with pytest.raises(NoValidRoot) as info:
        solve_mu_chain([2, 3, 4, 5, 6])
    assert str(info.value) == "pair 2: no root passes the checks: %s; %s" % (text, text)
    # pair 1 passes both oracles; pair 2 stops each root at its first failure
    assert calls == [3, 5] + ([4, 4] if failing == 4 else [4, 6, 4, 6])


@pytest.mark.parametrize("candidates", [[2, 3, 5, 7], [mpc(2, 1), mpc(-3, 0.5), 7, 0.25]])
def test_tag_factors_repeats_no_collision_check(monkeypatch, candidates):
    # the model has checked its branch points; tagging must not check again
    report = decompose(build_irreducible(candidates))
    want = cons.tag_factors(report, candidates)

    def refuse(points):
        raise AssertionError("collision check repeated during tagging")
    monkeypatch.setattr(numerics, "first_collision", refuse)
    assert cons.tag_factors(report, candidates) == want


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_tag_factors_invariants_are_the_exact_cross_ratios_rounded_once(bits):
    # an untagged factor reports its invariant: the exact cross-ratio of its
    # roots, each part rounded once, whichever factors share a difference
    saved = mp.prec
    mp.prec = bits
    try:
        candidates = [mpc(2), mpc(3), mpc(-1, 2), mpc(0.5, -1), mpc(1, 1) / 3]
        report = decompose(build_irreducible(candidates))
        tags = cons.tag_factors(report, candidates)
        untagged = [(curve, tag) for (_, curve), tag in zip(report.factors, tags)
                    if tag is not None and not any(tag is c for c in candidates)]
        assert len(untagged) >= 5
        for curve, tag in untagged:
            exact = [None if is_infinity(p) else GaussianRational.of(p) for p in curve.roots]
            assert tag._mpc_ == rounded_once(exact_cross_ratio(*exact), bits)
    finally:
        mp.prec = saved


def _untagged_invariants(report):
    # with no candidates, every genus-1 factor reports its invariant
    return [(curve, tag) for (_, curve), tag in zip(report.factors, cons.tag_factors(report, []))
            if curve.genus == 1]


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_tagging_table_gives_the_bits_of_cross_ratio_unchecked(bits):
    # one Gaussian table of every genus-1 root serves all invariants; each is
    # == cross_ratio_unchecked of its own factor's roots
    saved = mp.prec
    mp.prec = bits
    try:
        rng = random.Random(bits)
        models = [build_irreducible(random_admissible(rng, r)) for r in range(3, 9)]
        models += [build_reducible(solve_mu_chain(random_admissible(rng, r))) for r in (3, 5, 7)]
        for model in models:
            for curve, tag in _untagged_invariants(decompose(model)):
                assert tag._mpc_ == cons.cross_ratio_unchecked(*curve.roots)._mpc_
    finally:
        mp.prec = saved


@pytest.mark.parametrize("lambdas, per_factor", [
    ("1e-300+1i,2+1e-250i,3-1e-280i,-5+1e-270i,7", True),
    ("2,-1.5,0.3+1.1i,3/4,5", False),
])
def test_tagging_takes_the_per_factor_path_beyond_one_exponent(monkeypatch, lambdas, per_factor):
    # the roots of the far-exponents golden span about 1,000 bits, beyond
    # 3 prec + 64, so each invariant is cross_ratio_unchecked of its factor
    report = decompose(build_irreducible([numerics.parse_point(t) for t in lambdas.split(",")]))
    calls = []
    unchecked = cons.cross_ratio_unchecked
    monkeypatch.setattr(cons, "cross_ratio_unchecked",
                        lambda *points: calls.append(points) or unchecked(*points))
    invariants = _untagged_invariants(report)
    assert len(calls) == (len(invariants) if per_factor else 0)
    for curve, tag in invariants:
        assert tag._mpc_ == unchecked(*curve.roots)._mpc_


def test_chain_solver_and_tagging_build_each_orbit_once(monkeypatch):
    from jacdecomp import cli

    built = []
    build = legendre._orbit_entries
    monkeypatch.setattr(legendre, "_orbit_entries", lambda t: built.append(t) or build(t))
    assert cli.main(["decompose", "reducible", "--chain", "2,3,4,5,6,7,8",
                     "--format", "json"]) == 0
    # the solver certifies with the orbits of all targets but the first
    assert len(built) == len(set(built)) == 7


def test_solver_oracles_repeat_no_collision_check(monkeypatch):
    # admission has shown each oracle's four points distinct; the oracles
    # must not check them again
    want = solve_mu_chain([2, 3, 4, 5, 6, 7, 8]), solve_mu_genus3(2, 3, 4)

    def refuse(points):
        raise AssertionError("collision check repeated by a solver oracle")
    monkeypatch.setattr(numerics, "first_collision", refuse)
    assert (solve_mu_chain([2, 3, 4, 5, 6, 7, 8]), solve_mu_genus3(2, 3, 4)) == want


def test_chain_validates_each_root_once(monkeypatch):
    lengths, admitted = [], []
    check, admit = cons.require_admissible_tuple, cons.admit_next
    monkeypatch.setattr(cons, "require_admissible_tuple",
                        lambda values, name="lambda": lengths.append(len(values))
                        or check(values, name))
    monkeypatch.setattr(cons, "admit_next",
                        lambda table, values, name: admitted.append((len(table), len(values)))
                        or admit(table, values, name))
    solve_mu_chain([2, 3, 4, 5, 6, 7, 8])
    # the input once; each root tried checks its two values against the
    # tuple admitted so far, and no closing validation follows
    assert lengths == [7]
    assert admitted == [(1, 2), (3, 2), (5, 2)]


def test_chain_even_case_realizes_bound():
    # padding an even tuple gives an odd chain whose construction genus is
    # exactly the closed-form bound
    rng = random.Random(72)
    for r in (4, 6):
        targets = random_admissible(rng, r)
        padded = chain_with_auxiliary(targets)
        params = solve_mu_chain(padded)
        model = build_reducible(params)
        assert total_genus(model) == genus_upper_bound(r)
        invariants = genus_one_invariants(decompose(model))
        assert orbits_cover(invariants, targets)


# Irreducible family checks


def test_build_irreducible_needs_three():
    with pytest.raises(InvalidDomain):
        build_irreducible([2, 3])


def test_irreducible_r3_decomposition():
    rng = random.Random(73)
    report = decompose(build_irreducible(random_admissible(rng, 3)))
    assert sorted(c.genus for _, c in report.factors) == [1, 1, 1, 2]
    assert report.genus_sum == 5


def test_genus5_family_example():
    report = check_genus5_family(2, 5)
    assert report.ok and report.elliptic_count == 5
    assert sorted(report.factor_genera) == [1, 1, 1, 2]
    flat = []
    for a, b in report.pairings[0b111, 0].pairs:
        flat.append("inf" if is_infinity(a) else a)
        flat.append(b)
    finite = [p for p in flat if p != "inf"]
    for value in (0, 1, 2, 5, mpf(2) / 5):
        assert any(close(p, value) for p in finite)


@pytest.mark.parametrize("l1, l2, text", [
    # the third parameter collides with the second
    (4, 2, "lambda_2 and lambda_3 coincide within tolerance (2)"),
    ("1e-5", "1e5", "lambda_3 = 1e-10 is not admissible (too close to 0 or 1)"),
])
def test_genus5_family_collision_rejected(l1, l2, text):
    with pytest.raises(InvalidDomain) as info:
        check_genus5_family(l1, l2)
    assert str(info.value) == text


def test_genus5_family_random():
    rng = random.Random(74)
    for _ in range(10):
        l1, l2 = random_admissible(rng, 2)
        try:
            report = check_genus5_family(l1, l2)
        except InvalidDomain:
            continue
        assert report.ok


def test_genus13_family_reference_point():
    l2 = (4 + mpc(0, 1) * sqrt(2)) / 3
    report = check_genus13_family(2, l2)
    assert abs(report.residual) < 1e-12
    assert abs(report.lambdas[2] - (4 - mpc(0, 1) * sqrt(2)) / 3) < 1e-12
    assert abs(report.lambdas[3] - mpc(0, -1) * sqrt(2)) < 1e-12
    assert all(p.ok for p in report.pairings.values())
    assert report.elliptic_count == 13
    assert sorted(report.factor_genera) == [1, 1, 1, 1, 1, 2, 2, 2, 2]


def test_genus13_family_violation_residual():
    with pytest.raises(ConstraintViolated) as info:
        check_genus13_family(2, 3)
    assert close(info.value.residual, 9)


def test_genus13_constraint_roots_give_valid_families():
    # solve the defining constraint for the second parameter directly
    from jacdecomp.numerics import solve_quadratic

    rng = random.Random(75)
    found = 0
    for _ in range(20):
        (l1,) = random_admissible(rng, 1)
        for l2 in solve_quadratic(1 + l1, -4 * l1, l1 * (1 + l1)):
            try:
                report = check_genus13_family(l1, l2)
            except (InvalidDomain, ConstraintViolated, DegenerateParameter):
                continue
            assert report.ok
            found += 1
    assert found >= 10


@pytest.mark.parametrize("eps", ["1e-30", "1e-9", "0.05"])
def test_genus13_residual_test_at_the_boundary(eps):
    # l2 solves the constraint shifted by a target of modulus eps (1 -/+ 2^-30)
    # times the largest of the residual's three terms, which three rounds of
    # refinement take from the root (|4 l1 l2| = 8 sqrt(2) there); the test
    # is the literal mpc rule on the terms the check forms.  l1 = 2 and l2
    # lie 0.21 apart in the chordal metric, so the largest epsilon is 0.05.
    numerics.set_epsilon(eps)
    decisions = set()
    l1 = mpc(2)
    for x in boundary_values():
        mp.prec += 64
        scale = 8 * sqrt(2)
        for _ in range(3):
            l2 = (4 + sqrt(3 * x * scale - 2)) / 3
            scale = max(abs(3 * l2 * l2), abs(8 * l2), 6)
        mp.prec -= 64
        l2 = +l2
        terms = l2 * l2 * (1 + l1), 4 * l1 * l2, l1 * (1 + l1)
        residual = terms[0] - terms[1] + terms[2]
        inside = abs(residual) <= numerics.epsilon() * max(abs(t) for t in terms)
        decisions.add(inside)
        try:
            check_genus13_family(l1, l2)
        except ConstraintViolated as exc:
            assert not inside and exc.residual == residual
        else:
            assert inside
    assert decisions == {True, False}


def test_factor_lambda_invariant_requires_genus_one():
    rng = random.Random(76)
    report = decompose(build_irreducible(random_admissible(rng, 3)))
    genus2 = next(c for _, c in report.factors if c.genus == 2)
    with pytest.raises(ValueError):
        factor_lambda_invariant(genus2)
