"""Complex arithmetic on the Riemann sphere.

Working values are mpmath complex numbers at a configurable binary
precision (default 128 bits of mantissa).  The point at infinity is a
dedicated symbol, never a large float.  One global tolerance, default 1e-9,
decides every comparison: points by their chordal distance (close), and
coefficients relative to the terms they are formed from (negligible).
"""

from __future__ import annotations

import cmath
import math
import os
import re
import sys
from dataclasses import dataclass

from mpmath import isfinite, mp, mpc, mpf, nstr
from mpmath.libmp import (fone, fzero, mpc_add, mpc_div, mpc_mul, mpc_mul_int, mpc_neg, mpc_sqrt,
                          mpc_sub, mpc_to_complex, mpf_add, mpf_le, mpf_mul, mpf_pos, normalize,
                          round_nearest)

DEFAULT_PRECISION_BITS = 128
DEFAULT_EPSILON = "1e-9"

_PRECISION_ENV = "JACDECOMP_PRECISION"


class DomainError(ValueError):
    """Base class for violated preconditions on domain values."""


class CollidingPoints(DomainError):
    """Two sphere points required to be distinct coincide within tolerance."""


class DegenerateLeadingCoefficient(DomainError):
    """Quadratic solver called with a leading coefficient negligible against
    the coefficients."""


class NotInvolution(DomainError):
    """A Mobius map required to be an involution is not one."""


# Largest working precision: mpmath's products cost more than linearly in the
# mantissa (`verify crosscheck --s 5` takes about 3 s at 65,536 bits and 21 s
# at 262,144), so a larger value exits 2 before any work.
PRECISION_MAX = 65536


def set_precision(bits: int) -> None:
    """Set the working mantissa precision in bits, in [53, PRECISION_MAX]."""
    if bits < 53:
        raise ValueError("precision must be at least 53 bits, got %r" % bits)
    if bits > PRECISION_MAX:
        raise ValueError("precision is capped at <= %d bits, got %d" % (PRECISION_MAX, bits))
    mp.prec = bits


# Slack of the double prefilter in first_near (see there).
_SLACK = 2.0 ** -40


def set_epsilon(eps) -> None:
    """Set the global comparison tolerance, in (0, 1), the chordal diameter
    of the sphere; a string must be a decimal or p/q of the literal grammar.
    first_near's bounds on the chord between two copies are kept beside it."""
    global _epsilon, _chord_bounds
    if isinstance(eps, str):
        if _NUMBER.fullmatch(eps.strip()) is None:
            raise ValueError("epsilon must be a decimal or p/q number, got %r" % eps)
        value = _parse_real(eps.strip(), eps, "epsilon")
    else:
        value = mpf(eps)
    if not (value > 0 and isfinite(value)):
        raise ValueError("epsilon must be positive and finite, got %r" % eps)
    if value >= 1:
        raise ValueError("epsilon must be below 1, got %r" % eps)
    _epsilon = value
    _chord_bounds = 2 * (float(value) + _SLACK), 2 * (float(value) - _SLACK)


def epsilon() -> mpf:
    return _epsilon


def _precision_from_env() -> int:
    """The precision named by JACDECOMP_PRECISION, or the default when unset."""
    text = os.environ.get(_PRECISION_ENV)
    if text is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if bits < 53:
        raise ValueError("%s must be an integer of at least 53 bits, got %r"
                         % (_PRECISION_ENV, text))
    if bits > PRECISION_MAX:
        raise ValueError("%s is capped at <= %d bits, got %r"
                         % (_PRECISION_ENV, PRECISION_MAX, text))
    return bits


# A bad JACDECOMP_PRECISION leaves the default in force, so the package still
# imports; the command line reports ENV_ERROR and exits 2.
try:
    set_precision(_precision_from_env())
    ENV_ERROR = None
except ValueError as exc:
    set_precision(DEFAULT_PRECISION_BITS)
    ENV_ERROR = exc
set_epsilon(mpf(DEFAULT_EPSILON))


class _Infinity:
    """The point at infinity of the Riemann sphere (a unique symbol)."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def is_infinity(p) -> bool:
    return isinstance(p, _Infinity)


def to_complex(x) -> mpc:
    """Coerce a finite numeric input (number or literal string) to mpc."""
    if isinstance(x, _Infinity):
        raise ValueError("expected a finite value, got the point at infinity")
    if type(x) is mpc:
        z = x
    else:
        z = parse_complex(x) if isinstance(x, str) else mpc(x)
    if not isfinite(z):
        raise ValueError("non-finite value %r not admitted" % x)
    return z


def to_point(x):
    """Coerce an input to a sphere point; strings go through the literal grammar."""
    if isinstance(x, _Infinity):
        return INFINITY
    if isinstance(x, str):
        return parse_point(x)
    return to_complex(x)


def _raw(p):
    """INFINITY, or the raw ``_mpc_`` tuple of a value coerced as mpc does."""
    return p if p is INFINITY else (p if type(p) is mpc else mpc(p))._mpc_


def _lifted(z, prec) -> tuple:  # 1 + |z|^2 of a raw _mpc_ tuple
    return mpf_add(fone, mpf_add(mpf_mul(z[0], z[0]), mpf_mul(z[1], z[1]), prec), prec)


def close(a, b) -> bool:
    """Tolerance equality on the sphere: the chordal distance

        |a - b| / sqrt((1 + |a|^2)(1 + |b|^2)),  or 1 / sqrt(1 + |b|^2) for a = inf,

    is at most epsilon (tested squared); t -> 1/t preserves it.  A finite
    value is coerced as mpc coerces it."""
    a, b = _raw(a), _raw(b)
    if is_infinity(a):
        a, b = b, a
    prec = mp.prec
    bound = mpf_mul(_epsilon._mpf_, _epsilon._mpf_, prec)
    if is_infinity(b):
        return is_infinity(a) or mpf_le(fone, mpf_mul(bound, _lifted(a, prec), prec))
    d = mpc_sub(a, b, prec)
    return mpf_le(mpf_add(mpf_mul(d[0], d[0]), mpf_mul(d[1], d[1]), prec),
                  mpf_mul(mpf_mul(bound, _lifted(a, prec), prec), _lifted(b, prec), prec))


# The largest double part that sphere_copy reads directly.
_LARGE = 2.0 ** 500


def to_double(z) -> complex:
    """The double copy of a raw ``_mpc_`` tuple, each part rounded to nearest,
    bit for bit mpc_to_complex(z, False, round_nearest).  A part that is zero,
    or has a mantissa under 1024 bits and a value in the normal double range,
    is ldexp(+-man, exp): int -> float rounds to nearest-even and ldexp is
    exact there.  Any other value goes through mpc_to_complex."""
    (s1, x, e1, n1), (s2, y, e2, n2) = z
    if ((x and n1 < 1024 and -1021 <= e1 + n1 <= 1023 or z[0] == fzero)
            and (y and n2 < 1024 and -1021 <= e2 + n2 <= 1023 or z[1] == fzero)):
        return complex(math.ldexp(-x if s1 else x, e1), math.ldexp(-y if s2 else y, e2))
    return mpc_to_complex(z, False, round_nearest)


def _gauss(z, e=None) -> tuple:
    """A raw ``_mpc_`` tuple as a Gaussian integer with one exponent, (x, y, e)
    for (x + iy) 2^e: e is the lower exponent of the nonzero parts (a zero
    part does not set it), or the given e, at most each of theirs."""
    (s1, x, e1, _), (s2, y, e2, _) = z
    if e is None:
        e = e2 if not x or (y and e2 < e1) else e1
    return ((-x if s1 else x) << (e1 - e) if x else 0,
            (-y if s2 else y) << (e2 - e) if y else 0, e)


def reciprocal_copy(copy: tuple) -> tuple:
    """The sphere copy of 1/z from that of z: (X, Y, Z) -> (X, -Y, -Z)."""
    return copy[0], -copy[1], -copy[2]


def sphere_copy(d: complex, z) -> tuple:
    """The point (2x, 2y, |d|^2 - 1) / (1 + |d|^2) of the unit sphere, in
    doubles, of d, a double within a relative 2^-50 of z.  A d with a part
    above 2^500 is read through 1/d, and one with a part that is inf through
    1/z in mpc; z is a raw ``_mpc_`` tuple or a function that returns one."""
    x, y = d.real, d.imag
    if abs(x) <= _LARGE and abs(y) <= _LARGE:
        n = x * x + y * y
        return 2 * x / (1 + n), 2 * y / (1 + n), (n - 1) / (1 + n)
    if not cmath.isfinite(d):
        d = to_double((1 / mp.make_mpc(z() if callable(z) else z))._mpc_)
        return reciprocal_copy(sphere_copy(d, None))
    return reciprocal_copy(sphere_copy(1 / d, None))


def near_entry(z) -> tuple:
    """(sphere copy, z) for a raw ``_mpc_`` tuple z, or for INFINITY."""
    if z is INFINITY:
        return (0.0, 0.0, 1.0), z
    return sphere_copy(to_double(z), z), z


def entry_value(entry):
    """The point of a near entry: INFINITY or an mpc."""
    z = entry[1]() if callable(entry[1]) else entry[1]
    return z if is_infinity(z) else mp.make_mpc(z)


def near_table(points) -> list:
    """The near entries of the points, in order, coerced as close does."""
    return [near_entry(_raw(p)) for p in points]


def first_near(entry, table):
    """Index of the first entry of a near_table that close accepts with the
    point of ``entry`` (its near_entry), or None: the answer of a linear
    close scan, with a double prefilter.

    The chord between two points of the unit sphere is twice their chordal
    distance.  Every sphere copy lies within 2^-48 of its point: a relative
    error r of a value moves its point by a chord of at most r, a part below
    the normal range by at most 2^-1073, and sphere_copy's double operations
    add a few units of 2^-53.  So an entry is skipped without calling close
    only when the chord c between the copies, in doubles, exceeds
    2 (eps + 2^-40), and accepted only when c < 2 (eps - 2^-40): 2^-40
    covers both copies' error, the rounding of c and close's own rounding, a
    relative few units of 2^-mp.prec of a distance at most 1.
    """
    copy = entry[0]
    skip, accept = _chord_bounds
    for k, v in enumerate(table):
        chord = math.dist(copy, v[0])
        if chord <= skip and (chord < accept or close(entry_value(entry), entry_value(v))):
            return k
    return None


def first_collision(points):
    """The first pair (i, j), i < j, of points that close accepts, or None:
    the answer of a scan of every pair with close in (i, j) order.

    The sphere copies (near_table) are sorted on X and swept: an X gap never
    exceeds the chord, so only pairs within first_near's skip bound in X
    are candidates, and first_near decides each."""
    entries = near_table(points)
    swept = sorted((entry[0][0], k) for k, entry in enumerate(entries))
    pairs = []
    for a, (x, i) in enumerate(swept):
        for y, j in swept[a + 1:]:
            if y - x > _chord_bounds[0]:
                break
            pairs.append((min(i, j), max(i, j)))
    for i, j in sorted(pairs):
        if first_near(entries[i], [entries[j]]) is not None:
            return i, j
    return None


def negligible(x, *terms) -> bool:
    """|x| <= epsilon * max |term| for mpc x and terms."""
    return abs(x) <= _epsilon * max(abs(t) for t in terms)


def point_sort_key(p):
    """Deterministic ordering key: infinity first, then by (re, im) in doubles."""
    if is_infinity(p):
        return (0, 0.0, 0.0)
    d = to_double(_raw(p))
    return (1, d.real, d.imag)


def format_complex(z) -> str:
    """Render a finite value in the literal grammar at 17 significant digits,
    from its double copy; a part beyond the double range raises ValueError,
    as in literals."""
    if type(z) is not mpc:
        z = mpc(z)
    d = to_double(z._mpc_)
    if math.isinf(d.real):
        raise _beyond_double(z.real)
    if math.isinf(d.imag):
        raise _beyond_double(abs(z.imag))
    re_s = "%.17g" % (d.real or 0.0)  # folds -0.0 into one rendering
    if not d.imag:
        return re_s
    im_s = "%.17g" % abs(d.imag)
    if re_s == "0":
        return ("-" if d.imag < 0 else "") + im_s + "i"
    return re_s + ("-" if d.imag < 0 else "+") + im_s + "i"


def format_point(p) -> str:
    return "inf" if is_infinity(p) else format_complex(p)


def _beyond_double(x) -> ValueError:
    return ValueError("value %s exceeds the double range" % nstr(x, 5))


# The literal grammar.  A body is a decimal or p/q, and a decimal that starts
# with its point has a nonzero digit (mpf cannot read ".0"); a term is an
# optional body and an optional i, not both absent; a literal is one term, or
# a real and an imaginary term in either order with the second one signed.  A
# quotient is a parenthesized literal or quotient, divided by nothing or by a
# signed body.
_REAL = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.0*[1-9][0-9]*(?:[eE][+-]?[0-9]+)?"
_BODY = r"(?:%s)(?:/(?:%s))?" % (_REAL, _REAL)
_TERM = r"(?=[0-9.i])(%s)?(i?)" % _BODY
_LITERAL = re.compile(r"([+-]?)%s(?:([+-])%s)?" % (_TERM, _TERM))
_QUOTIENT = re.compile(r"\((.*)\)(?:/([+-]?%s))?" % _BODY)


def parse_point(text: str):
    """Parse a sphere-point literal: the complex grammar plus the token inf."""
    if text.strip().lower() == "inf":
        return INFINITY
    return parse_complex(text)


def parse_complex(text: str) -> mpc:
    """Parse a complex literal of the grammar above, spaces ignored: e.g.
    "2", "-1.5", "3/4", "2+3i", "-3/4i+1/2", "i", "-2i" and "(4+1.4142i)/3".

    Each body is read by _parse_real and negated after a "-"; the divisors
    of nested quotients apply innermost first, each tested against the
    double range."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    divisors = []
    while s.startswith("("):
        m = _QUOTIENT.fullmatch(s)
        if m is None:
            raise ValueError("malformed complex literal %r" % text)
        s, divisor = m.groups()
        divisors.append(divisor)
    m = _LITERAL.fullmatch(s)
    if m is None:
        raise ValueError("malformed complex literal %r" % text)
    first, second = m.groups()[:3], m.groups()[3:]
    parts = {}
    for sign, body, unit in (first, second) if second[0] else (first,):
        value = _parse_real(body, text) if body else mpf(1)
        if unit in parts:
            raise ValueError("repeated %s part in %r"
                             % ("imaginary" if unit else "real", text))
        parts[unit] = -value if sign == "-" else value
    z = _double_range(mpc(parts.get("", 0), parts.get("i", 0)), text)
    for divisor in filter(None, reversed(divisors)):
        d = _parse_real(divisor, text)
        if d == 0:
            raise ValueError("zero denominator in %r" % text)
        z = _double_range(z / d, text)
    return z


def _double_range(z: mpc, text: str) -> mpc:
    """Reject a value whose parts overflow a double: it would render as inf."""
    d = to_double(z._mpc_)
    if math.isinf(d.real) or math.isinf(d.imag):
        raise ValueError("literal %r exceeds the double range" % text)
    return z


_NUMBER = re.compile(_BODY)


def _read_number(token: str, name: str) -> mpf:
    """mpf of ``token``, a decimal of the grammar, or a ValueError that names
    ``name`` and the digit limit when mpf cannot read it.

    mpf reads every such decimal as float() does, then converts its digits
    and its exponent with int(), so the only body it refuses is one that
    meets the interpreter's limit on int-str conversion."""
    try:
        return mpf(token)
    except ValueError:
        raise ValueError("%s has a number of more than %d digits"
                         % (name, sys.get_int_max_str_digits())) from None


def _parse_real(token: str, text: str, option: str = "") -> mpf:
    """The value of a body, a decimal or p/q, of the literal ``text``, which
    every message names, or of the value ``text`` of ``option``."""
    name = option or "literal %r" % text
    num, slash, den = token.partition("/")
    value = _read_number(num, name)
    d = _read_number(den, name) if slash else None
    if d is None:
        return value
    if d == 0:
        raise ValueError("zero denominator in %s%r" % (option and option + " ", text))
    return value / d


@dataclass(frozen=True)
class MobiusMap:
    """The map z -> (a z + b) / (c z + d) with ad - bc nonzero."""

    a: mpc
    b: mpc
    c: mpc
    d: mpc

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, to_complex(getattr(self, name)))
        ad, bc = self.a * self.d, self.b * self.c
        if negligible(ad - bc, ad, bc):
            raise ValueError("Mobius map is singular: |ad - bc| <= epsilon max(|ad|, |bc|)")

    def apply(self, p):
        """Evaluate on a sphere point: INFINITY where the denominator is 0;
        near a pole the value is finite, and close compares it with inf."""
        if is_infinity(p):
            return INFINITY if self.c == 0 else self.a / self.c
        z = to_complex(p)
        den = self.c * z + self.d
        return INFINITY if den == 0 else (self.a * z + self.b) / den

    def is_involution(self) -> bool:
        """True when the matrix squared is a multiple of the identity: its
        off-diagonal entries and diagonal difference are negligible against
        its entries (the square may be nearly singular)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        square = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
        return all(negligible(x, *square) for x in (square[1], square[2], square[0] - square[3]))


def cross_ratio_lambda(p1, p2, p3, p4) -> mpc:
    """The Legendre parameter t of four branch points: the value of the
    Mobius map sending (p1, p2, p3) to (inf, 0, 1) at p4, which is the
    cross-ratio (p4 - p2)(p3 - p1) / ((p4 - p1)(p3 - p2)).

    The four points must be pairwise distinct (CollidingPoints names the
    first pair that is not); then this is cross_ratio_unchecked.
    """
    points = [p1, p2, p3, p4]
    pair = first_collision(points)
    if pair is not None:
        raise CollidingPoints("points %s and %s coincide within tolerance"
                              % (format_point(points[pair[0]]), format_point(points[pair[1]])))
    return cross_ratio_unchecked(*[p if is_infinity(p) else to_complex(p) for p in points])


def cross_ratio_unchecked(p1, p2, p3, p4) -> mpc:
    """cross_ratio_lambda for points already known to be pairwise distinct,
    each INFINITY or a finite mpc: the cross-ratio

        (p4 - p2)(p3 - p1) / ((p4 - p1)(p3 - p2))

    with the factors that hold inf dropped (at most one point is inf), each
    part the exact value rounded once to mp.prec bits, nearest-even: the
    gaussian_cross_ratio of gaussian_points.  Where those refuse the points,
    the factors and the quotient are mpc operations at 2 mp.prec + 64 bits,
    rounded to mp.prec: no integer grows with an exponent gap, and the
    modulus error stays below one unit of 2^-mp.prec of the value's modulus.
    The value may lie within tolerance of 0, 1 or inf, which admissibility
    tests.
    """
    prec = mp.prec
    points = [None if p is INFINITY else p._mpc_ for p in (p1, p2, p3, p4)]
    exact = gaussian_points(points, prec)
    if exact is not None:
        return gaussian_cross_ratio(*[exact[z] for z in points], prec)
    wide = 2 * prec + 64
    a, b, c, d = [(fone, fzero) if points[i] is None or points[j] is None
                  else mpc_sub(points[i], points[j], wide, round_nearest)
                  for i, j in ((3, 1), (2, 0), (3, 0), (2, 1))]
    re, im = mpc_div(mpc_mul(a, b, wide, round_nearest), mpc_mul(c, d, wide, round_nearest),
                     wide, round_nearest)
    return mp.make_mpc((mpf_pos(re, prec, round_nearest), mpf_pos(im, prec, round_nearest)))


def gaussian_points(points, prec: int) -> dict | None:
    """Each raw ``_mpc_`` tuple -> its _gauss at one exponent, the lowest of
    their nonzero parts, and None (inf) -> None; or None where those parts
    span more than 3 prec + 64 bits, which no subset of a set within does."""
    parts = [part for z in points if z for part in z if part[1]]
    low = min([part[2] for part in parts], default=0)
    if max([part[2] + part[3] for part in parts], default=0) - low > 3 * prec + 64:
        return None
    return {z: z and _gauss(z, low) for z in points}


def gaussian_cross_ratio(z1, z2, z3, z4, prec: int) -> mpc:
    """cross_ratio_unchecked of gaussian_points of its points: the common
    exponent cancels, and each part is one rounded_quotient."""
    # z4 - z2 and z3 - z1 above the bar, z4 - z1 and z3 - z2 below
    (a, b), (c, d), (u, v), (s, t) = [(1, 0) if p is None or q is None
                                      else (p[0] - q[0], p[1] - q[1])
                                      for p, q in ((z4, z2), (z3, z1), (z4, z1), (z3, z2))]
    x, y, u, v = a * c - b * d, a * d + b * c, u * s - v * t, u * t + v * s
    norm = u * u + v * v
    return mp.make_mpc((rounded_quotient(x * u + y * v, norm, prec),
                        rounded_quotient(y * u - x * v, norm, prec)))


def rounded_quotient(n: int, d: int, prec: int) -> tuple:
    """The raw mpf n / d, d > 0, rounded to nearest-even at prec bits, by
    mpf_div's recipe: a quotient of at least prec + 5 bits, a sticky bit."""
    extra = max(prec - abs(n).bit_length() + d.bit_length() + 5, 5)
    quot, rem = divmod(abs(n) << extra, d)
    if rem:
        quot, extra = (quot << 1) | 1, extra + 1
    return normalize(int(n < 0), quot, -extra, quot.bit_length(), prec, round_nearest)


def solve_quadratic(a, b, c) -> tuple[mpc, mpc]:
    """Both roots of a*x^2 + b*x + c = 0, in a deterministic order.

    The root with non-negative imaginary part comes first; ties are broken
    by descending real part.  Each step is the libmp operation of the mpc
    expressions (-b +- sqrt(b*b - 4*a*c)) / (2*a).
    """
    a, b, c = to_complex(a), to_complex(b), to_complex(c)
    if negligible(a, a, b, c):
        raise DegenerateLeadingCoefficient("leading coefficient is zero within tolerance")
    prec, (a, b, c) = mp.prec, (a._mpc_, b._mpc_, c._mpc_)
    four_ac = mpc_mul(mpc_mul_int(a, 4, prec, round_nearest), c, prec, round_nearest)
    disc = mpc_sub(mpc_mul(b, b, prec, round_nearest), four_ac, prec, round_nearest)
    root, minus_b = mpc_sqrt(disc, prec, round_nearest), mpc_neg(b, prec, round_nearest)
    twice_a = mpc_mul_int(a, 2, prec, round_nearest)
    roots = [mpc_div(f(minus_b, root, prec, round_nearest), twice_a, prec, round_nearest)
             for f in (mpc_add, mpc_sub)]
    r1, r2 = sorted(roots, key=lambda r: (r[1][0], -to_double(r).real, -to_double(r).imag))
    return mp.make_mpc(r1), mp.make_mpc(r2)
