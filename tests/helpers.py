"""Shared generators for the randomized suites (seeded, deterministic), the
chordal distance and the points at a given chordal distance that the
tolerance tests are checked against, the close scans over the parameter
orbit that the orbit table is checked against, the exact Gaussian-rational
oracle for tags, admissibility and the cross-ratio rounded once, the
libmp conversion that to_double is checked against, the reference loop of the sampled
equation identity with its error contract, the two-part integer kernel of
the sampled identity whose error list the one-exponent kernel must equal,
the rendering of a complex value from its two mpf parts that
format_complex is checked against, and the per-root rendering of
equations that the CLI's term tables are checked against, and the two
involutions that split the genus-3 factor of the genus-9 family."""

import math
import random
from fractions import Fraction
from math import hypot, ldexp

from mpmath import conj, mp, mpc, mpf, nstr, sqrt
from mpmath.libmp import from_rational, mpc_to_complex, round_nearest

from jacdecomp import constructions, numerics
from jacdecomp.constructions import ReducibleParams, _coordinate_forms
from jacdecomp.numerics import MobiusMap, to_complex
from jacdecomp.legendre import orbit_images, require_admissible
from jacdecomp.legendre import random_admissible  # noqa: F401  (shared by the suites)


_BOUNDARY_DIRECTIONS = (1, -1, 1j, mpc(3, 4) / 5)


def boundary_values():
    """Values of modulus epsilon * (1 -/+ 2^-30) in four directions, just
    inside and just outside the tolerance in force."""
    return [numerics.epsilon() * (1 + sign * mpf(2) ** -30) * mpc(direction)
            for sign in (-1, 1) for direction in _BOUNDARY_DIRECTIONS]


def chordal(a, b) -> mpf:
    """The chordal distance |a - b| / sqrt((1 + |a|^2)(1 + |b|^2)), with
    d(inf, b) = 1 / sqrt(1 + |b|^2), at twice the working precision."""
    if numerics.is_infinity(a):
        a, b = b, a
    with mp.workprec(2 * mp.prec):
        if numerics.is_infinity(b):
            return mpf(0) if numerics.is_infinity(a) else 1 / sqrt(1 + abs(mpc(a)) ** 2)
        a, b = mpc(a), mpc(b)
        return abs(a - b) / sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def sphere_gap(entry) -> mpf:
    """The distance in R^3 between the sphere copy of a near entry and the
    point of its value on the unit sphere, (2x, 2y, |z|^2 - 1) / (1 + |z|^2)
    or (0, 0, 1) for inf, formed at 4,000 bits; the distance itself needs
    only 200."""
    value = numerics.entry_value(entry)
    with mp.workprec(4000):
        if numerics.is_infinity(value):
            point = [mpf(0), mpf(0), mpf(1)]
        else:
            n = value.real ** 2 + value.imag ** 2
            point = [2 * value.real / (1 + n), 2 * value.imag / (1 + n), (n - 1) / (1 + n)]
    with mp.workprec(200):
        return sqrt(sum((mpf(c) - p) ** 2 for c, p in zip(entry[0], point)))


def chordal_neighbour(center, step, direction):
    """A point at chordal distance step * epsilon from center (a value or
    inf): the rotation w -> (w + c)/(1 - conj(c) w) of the sphere, which
    takes 0 to c, or w -> 1/w for inf, applied to the point w in the given
    direction at that distance from 0.  A distance of 1 or more, past the
    sphere's diameter, gives a far point instead."""
    delta = step * numerics.epsilon()
    w = (delta / sqrt(1 - delta * delta) if delta < 1 else delta) * mpc(direction)
    if numerics.is_infinity(center):
        return numerics.INFINITY if w == 0 else 1 / w
    c = mpc(center)
    den = 1 - conj(c) * w
    return numerics.INFINITY if den == 0 else (w + c) / den


def chordal_boundary_values(center=0):
    """Points at chordal distance epsilon * (1 -/+ 2^-30) from center in four
    directions, just inside and just outside the tolerance in force."""
    return [chordal_neighbour(center, 1 + sign * mpf(2) ** -30, direction)
            for sign in (-1, 1) for direction in _BOUNDARY_DIRECTIONS]


def same_curve_by_scan(l1, l2) -> bool:
    """Reference for OrbitTable.same_curve and legendre.same_curve: l2 and
    then l1 are admitted, and l2 is checked with close against each of the
    six orbit_images of l1."""
    l2 = require_admissible(l2)
    images = orbit_images(require_admissible(l1)._mpc_)
    return any(numerics.close(l2, mp.make_mpc(w)) for w in images)


def orbit_by_close_scan(t) -> list:
    """Reference for s3_orbit: the images of orbit_images(t), each kept
    unless close accepts it with an image kept before it."""
    kept = []
    for image in orbit_images(numerics.to_complex(t)._mpc_):
        w = mp.make_mpc(image)
        if not any(numerics.close(w, v) for v in kept):
            kept.append(w)
    return kept


class GaussianRational:
    """x + y i with Fraction parts: exact field arithmetic, equality, the
    nearest mpc and a literal of the CLI grammar (p/q parts)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def _of(x):
        return x if isinstance(x, GaussianRational) else GaussianRational(x)

    def __add__(self, other):
        other = self._of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + -self._of(other)

    def __rsub__(self, other):
        return self._of(other) - self

    def __mul__(self, other):
        other = self._of(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        norm = other.re * other.re + other.im * other.im
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        return self._of(other) / self

    def __pow__(self, n: int):
        out = GaussianRational(1)
        for _ in range(n):
            out *= self
        return out

    def __eq__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = self._of(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return self.literal()

    @classmethod
    def of(cls, z) -> "GaussianRational":
        """The exact value of an mpc."""
        def exact(part):
            sign, man, exp, _ = part._mpf_
            return Fraction(-man if sign else man) * Fraction(2) ** exp
        return cls(exact(z.real), exact(z.imag))

    def to_mpc(self) -> mpc:
        return mpc(mpf(self.re.numerator) / self.re.denominator,
                   mpf(self.im.numerator) / self.im.denominator)

    def literal(self) -> str:
        def body(x):
            return "%d/%d" % (abs(x.numerator), x.denominator)
        if not self.im:
            return ("-" if self.re < 0 else "") + body(self.re)
        imag = ("-" if self.im < 0 else "+") + body(self.im) + "i"
        if not self.re:
            return imag.lstrip("+")
        return ("-" if self.re < 0 else "") + body(self.re) + imag


def exact_j(t):
    """j(t) = 256 (t^2 - t + 1)^3 / (t^2 (t - 1)^2) of an exact t other than 0
    and 1: equal exactly when two parameters describe isomorphic curves."""
    return 256 * (t * t - t + 1) ** 3 / (t * t * (t - 1) ** 2)


def exact_orbit(t) -> list:
    """t, 1/t, 1 - t, 1/(1 - t), t/(t - 1) and (t - 1)/t of an exact t."""
    return [t, 1 / t, 1 - t, 1 / (1 - t), t / (t - 1), (t - 1) / t]


def exact_cross_ratio(p1, p2, p3, p4):
    """(p4 - p2)(p3 - p1) / ((p4 - p1)(p3 - p2)) of exact points, each None
    for inf, with the factors that hold inf dropped."""
    def factor(p, q):
        return 1 if p is None or q is None else p - q
    return factor(p4, p2) * factor(p3, p1) / (factor(p4, p1) * factor(p3, p2))


def rounded_once(value: GaussianRational, prec: int) -> tuple:
    """The raw ``_mpc_`` tuple of an exact value, each part rounded once to
    prec bits, nearest-even."""
    return tuple(from_rational(part.numerator, part.denominator, prec, round_nearest)
                 for part in (value.re, value.im))


def to_double_reference(z) -> complex:
    """numerics.to_double by libmp's conversion, each part rounded to nearest."""
    return mpc_to_complex(z, False, round_nearest)


def cross_ratio_at_twice_the_precision(points):
    """(p4 - p2)(p3 - p1) / ((p4 - p1)(p3 - p2)) at twice the working
    precision, a factor that holds inf read as 1."""
    p1, p2, p3, p4 = points

    def factor(p, q):
        return mpc(1) if numerics.is_infinity(p) or numerics.is_infinity(q) else p - q
    with mp.workprec(2 * mp.prec):
        return factor(p4, p2) * factor(p3, p1) / (factor(p4, p1) * factor(p3, p2))


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
    while True:
        a, b, c, d = (mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        if abs(a * d - b * c) > 0.1:
            return MobiusMap(a, b, c, d)


def genus9_involutions(lam) -> dict:
    """check_split_family's maps for the genus-9 family of parameter lam:
    x -> lam/x and x -> lam(x - 1)/(x - lam) on the genus-3 factor, functional
    111."""
    return {0b111: [MobiusMap(0, lam, 1, 0), MobiusMap(lam, -lam, 1, -lam)]}


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
