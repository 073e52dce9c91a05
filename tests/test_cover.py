import random

import pytest
from mpmath import mpc

from jacdecomp.constructions import (
    ReducibleParams,
    build_irreducible,
    build_raw_fiber_product,
    build_reducible,
)
from jacdecomp.cover import (
    CoverModel,
    DependentBasis,
    Disconnected,
    ZeroElement,
    component_count,
    component_genus,
    decompose,
    fixed_point_count,
    functional_kernel_basis,
    gf2_in_span,
    gf2_rank,
    irreducible_genus_sum_identity,
    kani_rosen_criterion,
    pairing,
    quotient_equation,
    quotient_genus,
    reducible_genus_sum_identity,
    total_genus,
)
from jacdecomp.numerics import INFINITY, close

from helpers import random_admissible, random_cover_model

RNG_PARAMS = random.Random(31)


def reducible_params(s, rng=None):
    rng = rng or RNG_PARAMS
    draw = random_admissible(rng, 2 * s - 3)
    return ReducibleParams(draw[0], tuple(
        (draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))


# GF(2) helpers


def test_gf2_rank_and_span():
    assert gf2_rank([0b001, 0b010, 0b011]) == 2
    assert gf2_rank([]) == 0
    assert gf2_in_span(0b011, [0b001, 0b010])
    assert not gf2_in_span(0b100, [0b001, 0b010])


def test_functional_kernel_basis():
    for rank in range(2, 8):
        for functional in range(1, 1 << rank):
            basis = functional_kernel_basis(functional, rank)
            assert gf2_rank(basis) == rank - 1
            for v in basis:
                assert pairing(functional, v) == 0


# Model validation


def test_model_rejects_zero_vector():
    with pytest.raises(ValueError):
        CoverModel(2, [(INFINITY, 0), (0, 0b11), (1, 0b11)])


def test_model_rejects_nonzero_total_monodromy():
    with pytest.raises(ValueError):
        CoverModel(2, [(INFINITY, 0b01), (0, 0b10)])


def test_model_rejects_coincident_points():
    with pytest.raises(ValueError):
        CoverModel(2, [(2, 0b01), (2 + 1e-12, 0b01)])


def test_model_collision_message_names_first_pair():
    # pairs (0, 3) and (1, 2) both collide; (0, 3) comes first
    with pytest.raises(ValueError, match=r"^branch points coincide within tolerance: 5$"):
        CoverModel(2, [(5, 0b01), (mpc(3, 1), 0b11), (mpc(3, 1 + 1e-10), 0b01), (5, 0b11)])
    with pytest.raises(ValueError, match=r"^branch points coincide within tolerance: inf$"):
        CoverModel(2, [(INFINITY, 0b01), (3, 0b11), (INFINITY, 0b10)])


def test_model_rejects_oversized_vector():
    with pytest.raises(ValueError):
        CoverModel(2, [(0, 0b100), (1, 0b100)])


# Component counting


def test_component_count_split_rank_one():
    model = CoverModel(2, [(0, 0b01), (INFINITY, 0b01)])
    assert component_count(model) == 2
    with pytest.raises(Disconnected):
        total_genus(model)


def test_component_counts_for_families():
    for s in (3, 4, 5):
        assert component_count(build_raw_fiber_product(reducible_params(s))) == 2
        assert component_count(build_reducible(reducible_params(s))) == 1
    rng = random.Random(32)
    for r in (3, 4, 5):
        assert component_count(build_irreducible(random_admissible(rng, r))) == 1


# Genus computations


def test_rank_one_double_cover():
    # plain hyperelliptic double cover, the smallest valid model
    model = CoverModel(1, [(INFINITY, 1), (0, 1), (1, 1), (2, 1)])
    assert component_count(model) == 1
    assert total_genus(model) == 1
    report = decompose(model)
    assert report.genus_sum == 1 and report.kani_rosen_ok
    assert fixed_point_count(model, 1) == 4


def test_total_genus_irreducible_table():
    rng = random.Random(33)
    for r, want in [(3, 5), (4, 13), (5, 33)]:
        model = build_irreducible(random_admissible(rng, r))
        assert total_genus(model) == want


def test_component_genus_of_raw_product_matches_reducible():
    for s in (3, 4, 5, 6, 7, 8):
        params = reducible_params(s)
        raw = build_raw_fiber_product(params)
        assert component_genus(raw) == total_genus(build_reducible(params))
        assert component_genus(raw) == 1 + (1 << (s - 2)) * (s - 2)


def test_component_genus_connected_equals_total():
    rng = random.Random(34)
    for _ in range(10):
        model = random_cover_model(rng)
        assert component_genus(model) == total_genus(model)


def test_quotient_genus_trivial_subgroup_is_total():
    rng = random.Random(35)
    for _ in range(10):
        model = random_cover_model(rng)
        assert quotient_genus(model, []) == total_genus(model)


def test_quotient_genus_full_group_is_zero():
    rng = random.Random(36)
    model = random_cover_model(rng, rank=4)
    assert quotient_genus(model, [0b0001, 0b0010, 0b0100, 0b1000]) == 0


def test_quotient_genus_examples():
    rng = random.Random(37)
    irr5 = build_irreducible(random_admissible(rng, 5))
    # subgroup generated by c1c2, c1c3, c4, c5
    assert quotient_genus(irr5, [0b00011, 0b00101, 0b01000, 0b10000]) == 2
    irr4 = build_irreducible(random_admissible(rng, 4))
    assert quotient_genus(irr4, [0b0011, 0b0101, 0b1001]) == 1
    assert quotient_genus(irr4, 0b1111) == 1


def test_quotient_genus_against_fixed_point_accounting():
    # independent route: Riemann-Hurwitz applied to the quotient map itself,
    # 2g - 2 = |U| (2g_U - 2) + sum of fixed points of nonzero elements of U
    rng = random.Random(86)
    for _ in range(15):
        model = random_cover_model(rng)
        n = model.rank
        size = rng.randint(1, n - 1)
        basis = []
        while len(basis) < size:
            v = rng.randint(1, (1 << n) - 1)
            if gf2_rank(basis + [v]) == len(basis) + 1:
                basis.append(v)
        span = {0}
        for v in basis:
            span |= {u ^ v for u in span}
        fix_total = sum(fixed_point_count(model, u) for u in span if u)
        order = len(span)
        doubled = 2 * total_genus(model) - 2 - fix_total
        assert doubled % (2 * order) == 0
        assert quotient_genus(model, basis) == 1 + doubled // (2 * order)


def test_quotient_genus_rejects_dependent_basis():
    rng = random.Random(38)
    model = random_cover_model(rng, rank=3)
    with pytest.raises(DependentBasis):
        quotient_genus(model, [0b001, 0b010, 0b011])


# Fixed points


def test_fixed_point_counts_reducible():
    for s in range(3, 11):
        model = build_reducible(reducible_params(s))
        generators = [1 << j for j in range(s - 1)] + [(1 << (s - 1)) - 1]
        for g in generators:
            assert fixed_point_count(model, g) == 1 << (s - 1)


def test_fixed_point_counts_irreducible():
    rng = random.Random(39)
    for r in range(3, 11):
        model = build_irreducible(random_admissible(rng, r))
        for j in range(r):
            assert fixed_point_count(model, 1 << j) == 1 << (r - 1)
        assert fixed_point_count(model, (1 << r) - 1) == 3 * (1 << (r - 1))


def test_fixed_point_count_zero_for_non_branch_vector():
    rng = random.Random(40)
    model = build_irreducible(random_admissible(rng, 4))
    assert fixed_point_count(model, 0b0011) == 0


def test_fixed_point_count_rejects_zero():
    rng = random.Random(41)
    model = build_irreducible(random_admissible(rng, 3))
    with pytest.raises(ZeroElement):
        fixed_point_count(model, 0)


def test_ramification_consistency():
    # accumulated fixed points reproduce the total genus
    rng = random.Random(42)
    for _ in range(10):
        model = random_cover_model(rng)
        n = model.rank
        total_fix = sum(fixed_point_count(model, h) for h in range(1, 1 << n))
        assert 2 * total_genus(model) - 2 == -(1 << (n + 1)) + total_fix


# Quotient equations


def test_quotient_equation_examples():
    rng = random.Random(43)
    lambdas = random_admissible(rng, 4)
    irr4 = build_irreducible(lambdas)
    s1 = quotient_equation(irr4, 0b0111)
    assert s1.genus == 2 and s1.deleted_infinity
    finite = s1.finite_roots
    assert any(close(r, 0) for r in finite) and any(close(r, 1) for r in finite)
    for lam in lambdas[:3]:
        assert any(close(r, lam) for r in finite)

    e5 = quotient_equation(irr4, 0b1111)
    assert e5.genus == 1 and not e5.deleted_infinity
    for lam in lambdas:
        assert any(close(r, lam) for r in e5.finite_roots)

    params = reducible_params(3)
    red = build_reducible(params)
    base = quotient_equation(red, 0b11)
    assert base.genus == 1 and base.deleted_infinity
    assert any(close(r, 0) for r in base.finite_roots)
    assert any(close(r, 1) for r in base.finite_roots)
    assert any(close(r, params.lam) for r in base.finite_roots)


# Decomposition


def test_decompose_irreducible_r4_table():
    rng = random.Random(44)
    report = decompose(build_irreducible(random_admissible(rng, 4)))
    assert sorted(c.genus for _, c in report.factors) == [1, 1, 1, 1, 1, 2, 2, 2, 2]
    assert report.genus_sum == 13 == report.total_genus
    assert report.kani_rosen_ok


def test_decompose_irreducible_r5_table():
    rng = random.Random(45)
    report = decompose(build_irreducible(random_admissible(rng, 5)))
    genera = sorted(c.genus for _, c in report.factors)
    assert genera == [1] * 10 + [2] * 10 + [3]
    assert len(report.factors) == 21
    assert report.genus_sum == 33
    assert report.kani_rosen_ok


def test_decompose_reducible_s4():
    report = decompose(build_reducible(reducible_params(4)))
    assert sorted(c.genus for _, c in report.factors) == [1, 1, 1, 1, 1, 1, 3]
    assert report.genus_sum == 9 == report.total_genus
    assert report.kani_rosen_ok


def test_decompose_reducible_factor_count_s5():
    report = decompose(build_reducible(reducible_params(5)))
    assert len(report.factors) == 15  # nonempty even subsets of 5 indices


def test_decompose_factors_are_sorted_by_functional():
    report = decompose(build_reducible(reducible_params(4)))
    functionals = [f for f, _ in report.factors]
    assert functionals == sorted(functionals)


def test_join_of_distinct_index_two_kernels_is_everything():
    # the shortcut used by decompose, validated against explicit joins
    rng = random.Random(46)
    for _ in range(10):
        model = random_cover_model(rng)
        n = model.rank
        f1 = rng.randint(1, (1 << n) - 1)
        f2 = rng.randint(1, (1 << n) - 1)
        if f1 == f2:
            continue
        joined = functional_kernel_basis(f1, n) + functional_kernel_basis(f2, n)
        assert gf2_rank(joined) == n
        diag = kani_rosen_criterion(model, [f1, f2])
        assert diag.joins_ok


def test_kani_rosen_pass_irreducible_r4():
    rng = random.Random(47)
    model = build_irreducible(random_admissible(rng, 4))
    report = decompose(model)
    diag = kani_rosen_criterion(model, [f for f, _ in report.factors])
    assert diag.ok and diag.joins_ok and diag.sum_ok
    assert diag.genus_sum == 13


def test_kani_rosen_pass_reducible_s3():
    model = build_reducible(reducible_params(3))
    diag = kani_rosen_criterion(model, [0b11, 0b01, 0b10])
    assert diag.ok
    assert diag.genus_sum == 3


def test_kani_rosen_undercount_fails_condition_three():
    rng = random.Random(48)
    model = build_irreducible(random_admissible(rng, 4))
    diag = kani_rosen_criterion(model, [0b0001, 0b0010])
    assert not diag.ok
    assert diag.joins_ok
    assert diag.genus_sum == 2 and diag.total_genus == 13


def test_decompose_requires_connected():
    params = reducible_params(3)
    with pytest.raises(Disconnected):
        decompose(build_raw_fiber_product(params))


# Exact identities


def test_genus_sum_identities_small_values():
    assert reducible_genus_sum_identity(3) == (3, 3)
    assert reducible_genus_sum_identity(4) == (9, 9)
    assert reducible_genus_sum_identity(10) == (2049, 2049)
    assert irreducible_genus_sum_identity(3) == (5, 5)
    assert irreducible_genus_sum_identity(4) == (13, 13)
    assert irreducible_genus_sum_identity(5) == (33, 33)


def test_genus_sum_identities_exact_range():
    for k in range(3, 25):
        lhs, rhs = reducible_genus_sum_identity(k)
        assert lhs == rhs
        lhs, rhs = irreducible_genus_sum_identity(k)
        assert lhs == rhs


def test_decomposition_matches_identity_lhs():
    # the decompose genus sum is literally the identity's left side
    for s in (3, 4, 5, 6):
        report = decompose(build_reducible(reducible_params(s)))
        assert report.genus_sum == reducible_genus_sum_identity(s)[0]
    rng = random.Random(49)
    for r in (3, 4, 5, 6):
        report = decompose(build_irreducible(random_admissible(rng, r)))
        assert report.genus_sum == irreducible_genus_sum_identity(r)[0]
