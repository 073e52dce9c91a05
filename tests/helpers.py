"""Shared generators for the randomized suites (seeded, deterministic), the
close scans over the parameter orbit that the orbit table is checked
against, the reference loop of the sampled equation identity with its
error contract, the rendering of a complex value from its two mpf parts
that format_complex is checked against, and the per-root rendering of
equations that the CLI's term tables are checked against."""

import math
import random

from mpmath import mp, mpc, mpf, nstr

from jacdecomp import constructions, numerics
from jacdecomp.legendre import orbit_images, require_admissible, s3_orbit
from jacdecomp.legendre import random_admissible  # noqa: F401  (shared by the suites)


def boundary_values():
    """Values of modulus epsilon * (1 -/+ 2^-30) in four directions, just
    inside and just outside the tolerance in force."""
    return [numerics.epsilon() * (1 + sign * mpf(2) ** -30) * mpc(direction)
            for sign in (-1, 1) for direction in (1, -1, 1j, mpc(3, 4) / 5)]


def same_curve_by_scan(l1, l2) -> bool:
    """Reference for OrbitTable.same_curve and legendre.same_curve: l2 is
    admitted, then checked with close against each image of s3_orbit(l1)."""
    l2 = require_admissible(l2)
    return any(numerics.close(l2, v) for v in s3_orbit(l1))


def orbit_by_close_scan(t) -> list:
    """Reference for s3_orbit: the images of orbit_images(t), each kept
    unless close accepts it with an image kept before it."""
    kept = []
    for image in orbit_images(numerics.to_complex(t)._mpc_):
        w = mp.make_mpc(image)
        if not any(numerics.close(w, v) for v in kept):
            kept.append(w)
    return kept


def format_complex_reference(z) -> str:
    """Reference for numerics.format_complex: each part converted from its
    mpf on its own and both signs taken from the mpf parts."""
    if type(z) is not mpc:
        z = mpc(z)
    re_s = _format_real_reference(z.real)
    im_s = _format_real_reference(abs(z.imag))
    if im_s == "0":
        return re_s
    if re_s == "0":
        return ("-" if z.imag < 0 else "") + im_s + "i"
    return re_s + ("-" if z.imag < 0 else "+") + im_s + "i"


def _format_real_reference(x) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    elif math.isinf(v):
        raise ValueError("value %s exceeds the double range" % nstr(x, 5))
    return "%.17g" % v


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


def within_error_contract(got, want) -> bool:
    """Each sampled-identity error within 2^-49 relative, plus 2^-1074
    absolute, of the reference loop's error.  The kernel's own contract is
    stated against its own d (each part its exact result rounded once);
    the reference loop's d comes from the mpc operators, and the two agree
    as long as no sum meets operands so far apart that mpf_add perturbs
    instead of forming the exact sum, which the tested data never does."""
    return len(got) == len(want) and all(
        abs(g - w) <= w * 2.0 ** -49 + 2.0 ** -1074 for g, w in zip(got, want))


def render_curve_equation_reference(eq) -> str:
    """Reference for cli.render_system: the constant and every root of the
    equation formatted on their own, shared roots included."""
    terms = [numerics.format_point(eq.constant)]
    for root in eq.roots:
        terms.append("(z - %s)^1" % numerics.format_point(root))
    return "w_%s^2 = %s" % ("".join(str(b) for b in eq.alpha), " * ".join(terms))


def render_factor_curve_reference(curve) -> str:
    """Reference for the factor equations of decompose: every finite root
    formatted on its own, and inf dropped."""
    return "y^2 = 1" + "".join(" * (x - %s)^1" % numerics.format_point(p)
                               for p in curve.roots if not numerics.is_infinity(p))
