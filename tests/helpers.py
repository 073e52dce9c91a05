"""Shared generators for the randomized suites (seeded, deterministic), the
close scans over the parameter orbit that the orbit table is checked
against, the reference loop of the sampled equation identity with its
error contract, the two-part integer kernel of the sampled identity whose
error list the one-exponent kernel must equal, the rendering of a complex value from its two mpf parts
that format_complex is checked against, and the per-root rendering of
equations that the CLI's term tables are checked against."""

import math
import random
from math import hypot, ldexp

from mpmath import mp, mpc, mpf, nstr

from jacdecomp import constructions, numerics
from jacdecomp.constructions import ReducibleParams, _coordinate_forms
from jacdecomp.numerics import to_complex
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


# Reference for constructions.sampled_identity_errors: the kernel as it was
# on two (mantissa, exponent) parts per value, kept verbatim.  The kernel on
# one shared exponent rounds each part by the same rule, so its error list
# must equal this one under ==.
# The sampled identity runs on complex values held as signed integers
# (re_man, re_exp, im_man, im_exp): each part is man * 2^exp with man odd,
# or man = 0.


def _int_part(x) -> tuple:
    """(man, exp) of a raw mpf tuple, the mantissa signed."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _int_complex(z) -> tuple:
    """(re_man, re_exp, im_man, im_exp) of a raw ``_mpc_`` tuple."""
    return (*_int_part(z[0]), *_int_part(z[1]))


def _sum(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple:
    """m1 2^e1 + m2 2^e2, formed exactly and rounded once to prec bits,
    nearest-even, as (man, exp) with man odd or 0."""
    if not m2:
        m, e = m1, e1
    elif not m1:
        m, e = m2, e2
    elif e1 >= e2:
        m, e = (m1 << (e1 - e2)) + m2, e2
    else:
        m, e = m1 + (m2 << (e2 - e1)), e1
    n = m.bit_length() - prec
    if n > 0:
        # floor shift, plus one above the half and at the half of an odd quotient
        m = (m + ((m >> n) & 1) + (1 << (n - 1)) - 1) >> n
        e += n
    if m and not m & 1:
        n = (m & -m).bit_length() - 1
        m >>= n
        e += n
    return m, e


def _mul(x, y, prec: int) -> tuple:
    """x * y: exact part products and sums, each part rounded once."""
    a, ae, b, be = x
    c, ce, d, de = y
    return (*_sum(a * c, ae + ce, -(b * d), be + de, prec),
            *_sum(a * d, ae + de, b * c, be + ce, prec))


def _add(x, y, prec: int) -> tuple:
    """x + y: exact part sums, each part rounded once."""
    return (*_sum(x[0], x[1], y[0], y[1], prec),
            *_sum(x[2], x[3], y[2], y[3], prec))


def _sub(x, y, prec: int) -> tuple:
    """x - y: exact part differences, each part rounded once."""
    return (*_sum(x[0], x[1], -y[0], y[1], prec),
            *_sum(x[2], x[3], -y[2], y[3], prec))


def _modulus(z) -> tuple:
    """(h, e) with |z| = h 2^e for a nonzero z, h a double in [1/2, 2): each
    part is read from the top 64 bits of its mantissa and scaled to below 1
    before hypot."""
    m1, e1, m2, e2 = z
    n1, n2 = m1.bit_length(), m2.bit_length()
    top = max(n1 + e1 if m1 else n2 + e2, n2 + e2 if m2 else n1 + e1)
    if n1 > 64:
        m1 >>= n1 - 64
        e1 += n1 - 64
    if n2 > 64:
        m2 >>= n2 - 64
        e2 += n2 - 64
    return hypot(ldexp(m1, e1 - top), ldexp(m2, e2 - top)), top


def _error(d, raw) -> float:
    """|d| / (1 + |raw|) as a double, d nonzero, within 2^-49 relative (plus
    2^-1074 absolute) of the exact quotient of these d and raw.  The
    exponents stay apart until the last ldexp, so no step overflows; an
    error beyond the double range is inf."""
    h, e = _modulus(d)
    if raw[0] or raw[2]:
        r, top = _modulus(raw)
        if top > 0:
            h, e = h / (ldexp(1.0, -top) + r), e - top
        else:
            h /= 1.0 + ldexp(r, top)
    try:
        return ldexp(h, e)
    except OverflowError:
        return float("inf")


def sampled_identity_errors_reference(params: ReducibleParams, equations, samples) -> list[float]:
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
    signed integer mantissas and exponents.  Every real and imaginary part
    of the form values, the table, the differences, the expanded chains and
    d = expanded - raw is the exact result of its integer part products and
    sums, rounded once to mp.prec bits, nearest-even (_sum).

    Error.  Each nonzero d gives |d| / (1 + |raw|) as a double (_error),
    within 2^-49 relative (plus 2^-1074 absolute) of the exact quotient of
    that d and raw; a d of 0 has error 0.0 exactly.
    """
    prec = mp.prec
    *groups, last = [[(_int_complex(const._mpc_), _int_complex(coeff._mpc_))
                      for const, coeff in group]
                     for group in _coordinate_forms(params)]
    (last_const, last_coeff), = last
    # the lower entries of odd weight, the ones the last coordinate joins
    odd = [bool(lower.bit_count() & 1) for lower in range(1 << len(groups))]
    distinct: dict = {}
    plan = []
    for eq in equations:
        mask = sum(bit << j for j, bit in enumerate(eq.alpha))
        indices = [distinct.setdefault(root._mpc_, len(distinct)) for root in eq.roots]
        plan.append((mask, _int_complex(eq.constant._mpc_), indices))
    roots = [_int_complex(root) for root in distinct]
    one = (1, 0, 0, 0)  # the value 1 as _int_complex gives it
    errors = [0.0] * len(equations)
    for z in samples:
        z = _int_complex(to_complex(z)._mpc_)
        table = [one]
        for group in groups:
            values = [_add(const, _mul(coeff, z, prec), prec) for const, coeff in group]
            for lower in range(len(table)):
                raw = table[lower]
                for value in values:
                    raw = _mul(raw, value, prec)
                table.append(raw)
        value = _add(last_const, _mul(last_coeff, z, prec), prec)
        table.extend([_mul(raw, value, prec) if joins else None
                      for raw, joins in zip(table, odd)])
        differences = [_sub(z, root, prec) for root in roots]
        for k, (mask, expanded, indices) in enumerate(plan):
            for i in indices:
                expanded = _mul(expanded, differences[i], prec)
            raw = table[mask]
            d = _sub(expanded, raw, prec)
            if d[0] or d[2]:
                errors[k] = max(errors[k], _error(d, raw))
    return errors
