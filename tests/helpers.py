"""Shared generators for the randomized suites (seeded, deterministic) and
the reference loop of the sampled equation identity."""

import random

from mpmath import mpc, mpf

from jacdecomp import constructions, numerics
from jacdecomp.legendre import random_admissible  # noqa: F401  (shared by the suites)


def boundary_values():
    """Values of modulus epsilon * (1 -/+ 2^-30) in four directions, just
    inside and just outside the tolerance in force."""
    return [numerics.epsilon() * (1 + sign * mpf(2) ** -30) * mpc(direction)
            for sign in (-1, 1) for direction in (1, -1, 1j, mpc(3, 4) / 5)]


def random_mobius(rng: random.Random):
    from jacdecomp.numerics import MobiusMap

    while True:
        a, b, c, d = (mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        if abs(a * d - b * c) > 0.1:
            return MobiusMap(a, b, c, d)


def random_cover_model(rng: random.Random, rank=None, connected=True):
    """A valid cover: distinct points, nonzero vectors, zero total monodromy."""
    from jacdecomp.cover import CoverModel, gf2_rank
    from jacdecomp.numerics import INFINITY

    n = rank or rng.randint(2, 8)
    while True:
        count = rng.randint(max(4, n + 1), n + 6)
        vectors = [rng.randint(1, (1 << n) - 1) for _ in range(count - 1)]
        closing = 0
        for v in vectors:
            closing ^= v
        if closing == 0:
            continue
        vectors.append(closing)
        if connected and gf2_rank(vectors) != n:
            continue
        points = [INFINITY] + random_admissible(rng, count - 1)
        return CoverModel(n, list(zip(points, vectors)))


def _sampled_errors_one_form_product_per_equation(params, equations, samples):
    # reference loop: the linear forms are rebuilt for every equation and
    # sample and multiplied in ascending coordinate order
    errors = []
    for eq in equations:
        worst = 0.0
        for z in samples:
            expanded = eq.evaluate(z)
            groups = constructions._coordinate_forms(params)
            point = numerics.to_complex(z)
            raw = mpc(1)
            for j, bit in enumerate(eq.alpha):
                if bit:
                    for const, coeff in groups[j]:
                        raw *= const + coeff * point
            worst = max(worst, float(abs(expanded - raw) / (1 + abs(raw))))
        errors.append(worst)
    return errors
