"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest report.
"""

import random
import time
from contextlib import contextmanager

from mpmath import mpc, sqrt

from jacdecomp import constructions as cons
from jacdecomp.constructions import (
    ReducibleParams,
    build_genus2,
    build_irreducible,
    build_raw_fiber_product,
    build_reducible,
    check_genus13_family,
    derive_equations_reducible,
    factor_lambda_invariant,
    genus_upper_bound,
    solve_mu_chain,
    solve_mu_genus3,
)
from jacdecomp.cover import (
    component_count,
    decompose,
    fixed_point_count,
    irreducible_genus_sum_identity,
    reducible_genus_sum_identity,
    total_genus,
)
from jacdecomp.legendre import same_curve
from jacdecomp.numerics import INFINITY, close, cross_ratio_lambda, is_infinity

from helpers import random_admissible

TOL = 1e-9


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %2d [%s]: FAIL" % (number, description))
        raise
    elapsed = time.perf_counter() - started
    print("criterion %2d [%s]: PASS (%.2fs)" % (number, description, elapsed))


def draw_reducible_params(rng, s):
    draw = random_admissible(rng, 2 * s - 3)
    return ReducibleParams(draw[0], tuple(
        (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))


def test_criterion_1_binomial_identities():
    with criterion(1, "binomial identities 3..24, exact, < 1s"):
        started = time.perf_counter()
        for k in range(3, 25):
            lhs, rhs = reducible_genus_sum_identity(k)
            assert lhs == rhs, "two-component identity fails at %d" % k
            lhs, rhs = irreducible_genus_sum_identity(k)
            assert lhs == rhs, "irreducible identity fails at %d" % k
        assert time.perf_counter() - started < 1.0


def test_criterion_2_genus_tables():
    with criterion(2, "genus tables: r=3,4,5 -> 5,13,33 and s=3,4 -> 3,9"):
        rng = random.Random(201)
        for r, want in [(3, 5), (4, 13), (5, 33)]:
            model = build_irreducible(random_admissible(rng, r))
            assert total_genus(model) == want
        for s, want in [(3, 3), (4, 9)]:
            assert total_genus(build_reducible(draw_reducible_params(rng, s))) == want


def test_criterion_3_kani_rosen_bookkeeping():
    with criterion(3, "decompose consistent, 100 tuples per model and size, < 30s"):
        rng = random.Random(202)
        started = time.perf_counter()
        for size in range(3, 11):
            for _ in range(100):
                report = decompose(build_reducible(draw_reducible_params(rng, size)))
                assert report.kani_rosen_ok
                report = decompose(build_irreducible(random_admissible(rng, size)))
                assert report.kani_rosen_ok
                if size == 4:
                    genera = sorted(c.genus for _, c in report.factors)
                    assert genera == [1, 1, 1, 1, 1, 2, 2, 2, 2]
                if size == 5:
                    genera = sorted(c.genus for _, c in report.factors)
                    assert genera == [1] * 10 + [2] * 10 + [3]
        assert time.perf_counter() - started < 30.0


def test_criterion_4_component_counts():
    with criterion(4, "raw fiber product -> 2 components, irreducible -> 1"):
        rng = random.Random(203)
        for size in range(3, 11):
            params = draw_reducible_params(rng, size)
            assert component_count(build_raw_fiber_product(params)) == 2
            assert component_count(build_reducible(params)) == 1
            assert component_count(
                build_irreducible(random_admissible(rng, size))) == 1


def test_criterion_5_fixed_point_counts():
    with criterion(5, "fixed points: 2^(s-1) per generator, 3*2^(r-1) at the product"):
        rng = random.Random(204)
        for s in range(3, 11):
            model = build_reducible(draw_reducible_params(rng, s))
            generators = [1 << j for j in range(s - 1)] + [(1 << (s - 1)) - 1]
            for g in generators:
                assert fixed_point_count(model, g) == 1 << (s - 1)
        for r in range(3, 11):
            model = build_irreducible(random_admissible(rng, r))
            for j in range(r):
                assert fixed_point_count(model, 1 << j) == 1 << (r - 1)
            assert fixed_point_count(model, (1 << r) - 1) == 3 * (1 << (r - 1))


def test_criterion_6_genus2_oracle():
    with criterion(6, "genus-2: factor orbits and normalizing map, 100 pairs"):
        rng = random.Random(205)
        for _ in range(100):
            l1, l2 = random_admissible(rng, 2)
            equation, model = build_genus2(l1, l2)
            report = decompose(model)
            invariants = [factor_lambda_invariant(c)
                          for _, c in report.factors if c.genus == 1]
            assert len(invariants) == 2
            for target in (l1, l2):
                assert any(same_curve(target, v) for v in invariants)
            m = equation.normalizing_map()
            assert abs(m.apply(1) - 1) < TOL
            assert is_infinity(m.apply(equation.eta1))
            assert abs(m.apply(equation.eta2)) < TOL
            assert abs(m.apply(INFINITY) - l1) < TOL
            assert abs(m.apply(0) - l2) < TOL


def test_criterion_7_genus3_oracle():
    with criterion(7, "genus-3 solver: three matching factors, 100 triples"):
        rng = random.Random(206)
        for _ in range(100):
            l1, l2, l3 = random_admissible(rng, 3)
            mu = solve_mu_genus3(l1, l2, l3)
            params = ReducibleParams(l1, ((mu, l3 * mu),))
            report = decompose(build_reducible(params))
            assert len(report.factors) == 3
            assert all(c.genus == 1 for _, c in report.factors)
            invariants = [factor_lambda_invariant(c) for _, c in report.factors]
            for target in (l1, l2, l3):
                assert any(same_curve(target, v) for v in invariants)


def test_criterion_8_equation_crosscheck():
    with criterion(8, "equations: s=3 closed forms x50, sampled identity s=3..6"):
        rng = random.Random(207)
        for _ in range(50):
            l1, l2, l3 = random_admissible(rng, 3)
            mu = solve_mu_genus3(l1, l2, l3)
            params = ReducibleParams(l1, ((mu, l3 * mu),))
            equations = derive_equations_reducible(params)
            reference = cons.reference_system_s3(l1, l3, mu)
            comparisons = cons.compare_with_reference(equations, reference)
            assert len(comparisons) == 3
            for comp in comparisons:
                assert comp.roots_matched
                assert comp.constant_error <= TOL
                assert comp.max_root_error <= TOL
        for s in (3, 4, 5, 6):
            params = draw_reducible_params(rng, s)
            equations = derive_equations_reducible(params)
            samples = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(20)]
            errors = cons.sampled_identity_errors(params, equations, samples)
            assert max(errors) <= TOL


def test_criterion_9_genus13_end_to_end():
    with criterion(9, "genus-13 family at the reference point, < 1s"):
        started = time.perf_counter()
        l1 = mpc(2)
        l2 = (4 + mpc(0, 1) * sqrt(2)) / 3
        report = check_genus13_family(l1, l2)
        assert abs(report.residual) < 1e-12
        assert abs(report.lambdas[2] - (4 - mpc(0, 1) * sqrt(2)) / 3) < 1e-12
        assert abs(report.lambdas[3] - mpc(0, -1) * sqrt(2)) < 1e-12
        assert len(report.pairings) == 4
        assert all(p.ok for p in report.pairings.values())
        assert report.elliptic_count == 13
        assert time.perf_counter() - started < 1.0


def test_criterion_10_bound_values_and_chain():
    with criterion(10, "bound values r=4..10 and chain solver on 50 odd tuples"):
        assert [genus_upper_bound(r) for r in range(4, 11)] == \
            [9, 9, 25, 25, 65, 65, 161]
        rng = random.Random(208)
        for i in range(50):
            r = (3, 5, 7)[i % 3]
            targets = random_admissible(rng, r)
            params = solve_mu_chain(targets)
            s = params.s
            lam = params.lam
            assert close(lam, targets[0])
            for j, (mu1, mu2) in enumerate(params.mu, start=1):
                assert same_curve(targets[j],
                                  cross_ratio_lambda(INFINITY, 0, mu1, mu2))
                assert same_curve(targets[s - 2 + j],
                                  cross_ratio_lambda(1, lam, mu1, mu2))
