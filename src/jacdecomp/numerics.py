"""Complex arithmetic on the Riemann sphere.

Working values are mpmath complex numbers at a configurable binary
precision (default 128 bits of mantissa).  The point at infinity is a
dedicated symbol, never a large float.  All comparisons go through a
single global tolerance, default 1e-9.
"""

from __future__ import annotations

import math
import operator
import os
import re
import sys
from dataclasses import dataclass

from mpmath import isfinite, mp, mpc, mpf, nstr, sqrt
from mpmath.libmp import fzero, mpc_to_complex, round_nearest

DEFAULT_PRECISION_BITS = 128
DEFAULT_EPSILON = "1e-9"

_PRECISION_ENV = "JACDECOMP_PRECISION"


class DomainError(ValueError):
    """Base class for violated preconditions on domain values."""


class CollidingPoints(DomainError):
    """Two sphere points required to be distinct coincide within tolerance."""


class DegenerateLeadingCoefficient(DomainError):
    """Quadratic solver called with |a| below tolerance."""


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


def set_epsilon(eps) -> None:
    """Set the global comparison tolerance, in (0, 1); a string must be a
    body of the literal grammar, a decimal or p/q.

    Every builder places the branch values 0 and 1, which are 1 apart, so no
    construction can succeed with a tolerance of 1 or more.  The double copy
    of the tolerance that first_near reads is kept beside it."""
    global _epsilon, _epsilon_float
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
    _epsilon, _epsilon_float = value, float(value)


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
    return bits


# A bad JACDECOMP_PRECISION leaves the default in force, so the package still
# imports; the command line reports ENV_ERROR and exits 2.
try:
    set_precision(_precision_from_env())
    ENV_ERROR = None
except ValueError as exc:
    set_precision(DEFAULT_PRECISION_BITS)
    ENV_ERROR = exc
_epsilon = mpf(DEFAULT_EPSILON)
_epsilon_float = float(_epsilon)


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


def close(a, b) -> bool:
    """Tolerance equality of two finite values."""
    if type(a) is not mpc:
        a = mpc(a)
    if type(b) is not mpc:
        b = mpc(b)
    return abs(a - b) <= _epsilon


# Slack of the double prefilter in first_near (see its docstring).
_NEAR_REL = 2.0 ** -40
_NEAR_ABS = 2.0 ** -1000
_NEAR_LIMIT = 2.0 ** 1000


def near_entry(z) -> tuple:
    """(double copy, 2^-40 times its modulus, z) for a raw ``_mpc_`` tuple z;
    a copy with a part not below 2^1000 in size, inf or nan included, gets
    the reach inf."""
    return copy_entry(to_double(z), z)


def to_double(z) -> complex:
    """The double copy of a raw ``_mpc_`` tuple: each part rounded to nearest
    (inf beyond the double range)."""
    return mpc_to_complex(z, False, round_nearest)


def copy_entry(d: complex, z) -> tuple:
    """near_entry with the double copy d of the value z given: d must lie
    within 2^-48 of z's modulus, plus 2^-1074 per part (first_near).  The
    value is a raw ``_mpc_`` tuple or a function of no arguments that
    returns one, called only when the value is read (entry_value)."""
    if abs(d.real) < _NEAR_LIMIT and abs(d.imag) < _NEAR_LIMIT:
        return d, _NEAR_REL * abs(d), z
    return 0j, math.inf, z


def entry_value(entry) -> mpc:
    """The value of a near entry, as an mpc."""
    z = entry[2]
    return mp.make_mpc(z() if callable(z) else z)


def near_table(values) -> list:
    """The values, in order, as a table for first_near; each value is
    coerced as close coerces it and converted to a double once."""
    return [near_entry((v if type(v) is mpc else mpc(v))._mpc_) for v in values]


def _near_bounds(reach):
    """first_near's skip and accept bounds on the double gap to an entry of
    reach 0, for a value of the given reach."""
    slack = _NEAR_REL * _epsilon_float + reach + _NEAR_ABS
    return _epsilon_float + slack, _epsilon_float - slack


def first_near(entry, table):
    """Index of the first entry of a near_table that close accepts with the
    value of ``entry`` (its near_entry), or None: the answer of a linear
    close scan, with a double prefilter.

    With x~, v~ the double copies and eps~ the tolerance as a double, an
    entry is skipped without calling close only when, in double arithmetic,

        |x~ - v~| > eps~ + 2^-40 (eps~ + |x~| + |v~|) + 2^-1000,

    and accepted without calling close only when

        |x~ - v~| < eps~ - 2^-40 (eps~ + |x~| + |v~|) - 2^-1000.

    A copy lies within 2^-48 of its value's modulus, plus 2^-1074 per part
    below the normal range (near_entry's conversion moves each part by one
    unit in the last place at most, 2^-52 of its size; copy_entry's callers
    state their own bound), the few double operations add a few units of
    2^-53, and close's own subtraction and modulus round by a relative
    2^-53 at most; the 2^-40 and 2^-1000 terms exceed that sum, so a
    skipped value lies farther than the tolerance from x and an accepted
    one nearer.  Parts below 2^1000 keep every double finite.  Every other
    entry is decided by close, on the values (entry_value); so is every
    entry when a copy has a part not below 2^1000 (its reach is then inf).
    """
    xd, reach, _ = entry
    outer, inner = _near_bounds(reach)
    for k, v in enumerate(table):
        gap = abs(xd - v[0])
        if gap <= outer + v[1] and (
                gap < inner - v[1] or close(entry_value(entry), entry_value(v))):
            return k
    return None


_ZERO_TABLE = [near_entry((fzero, fzero))]


def within_epsilon(z) -> bool:
    """abs(z) <= epsilon for a raw ``_mpc_`` tuple z rounded to the working
    precision, with mpc abs's answer: first_near against the single value 0,
    so decided from the double copy of z outside the slack stated there and
    by close inside it."""
    return first_near(near_entry(z), _ZERO_TABLE) is not None


def points_equal(p, q) -> bool:
    """Tolerance equality on the sphere."""
    if is_infinity(p) or is_infinity(q):
        return is_infinity(p) and is_infinity(q)
    return close(p, q)


def first_collision(points):
    """The first pair (i, j), i < j, of points equal within tolerance, or None:
    the answer of a scan of every pair with points_equal in (i, j) order.

    Two infinities always collide.  The finite points are sorted by the real
    parts of their double copies (near_table) and swept: only pairs whose
    real parts lie within first_near's skip bound for the largest reach are
    candidates, and first_near decides each.  A reach of inf makes every
    pair a candidate.
    """
    pts = list(points)
    infinite = [k for k, p in enumerate(pts) if is_infinity(p)]
    finite = [k for k, p in enumerate(pts) if not is_infinity(p)]
    entries = dict(zip(finite, near_table([pts[k] for k in finite])))
    top = max((entry[1] for entry in entries.values()), default=0.0)
    window = _near_bounds(top)[0] + top
    swept = sorted((entries[k][0].real, k) for k in finite)
    pairs = [tuple(infinite[:2])] if len(infinite) > 1 else []
    for a, (x, i) in enumerate(swept):
        b = a + 1
        while b < len(swept) and swept[b][0] - x <= window:
            j = swept[b][1]
            pairs.append((min(i, j), max(i, j)))
            b += 1
    for i, j in sorted(pairs):
        if is_infinity(pts[i]) or first_near(entries[i], [entries[j]]) is not None:
            return i, j
    return None


def point_sort_key(p):
    """Deterministic ordering key: infinity first, then by (re, im)."""
    if is_infinity(p):
        return (0, 0.0, 0.0)
    return (1, float(p.real), float(p.imag))


def format_complex(z) -> str:
    """Render a finite value in the literal grammar at 17 significant digits,
    from its double copy; a part beyond the double range raises ValueError,
    as in literals."""
    if type(z) is not mpc:
        z = mpc(z)
    d = complex(z)
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
    if math.isinf(float(z.real)) or math.isinf(float(z.imag)):
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
        if within_epsilon((self.a * self.d - self.b * self.c)._mpc_):
            raise ValueError("Mobius map is singular: |ad - bc| <= epsilon")

    def apply(self, p):
        """Evaluate on a sphere point, with projective pole conventions."""
        if is_infinity(p):
            if within_epsilon(self.c._mpc_):
                return INFINITY
            return self.a / self.c
        z = to_complex(p)
        den = self.c * z + self.d
        if within_epsilon(den._mpc_):
            return INFINITY
        return (self.a * z + self.b) / den

    def is_involution(self) -> bool:
        """True when the matrix squared is a multiple of the identity, within
        tolerance relative to its largest entry (the square may be nearly singular)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        a2, b2 = a * a + b * c, a * b + b * d
        c2, d2 = c * a + d * c, c * b + d * d
        scale = max(abs(a2), abs(b2), abs(c2), abs(d2))
        return (
            abs(b2) <= _epsilon * scale
            and abs(c2) <= _epsilon * scale
            and abs(a2 - d2) <= _epsilon * scale
        )


def _require_distinct(points) -> None:
    pts = list(points)
    pair = first_collision(pts)
    if pair is not None:
        raise CollidingPoints("points %s and %s coincide within tolerance"
                              % (format_point(pts[pair[0]]), format_point(pts[pair[1]])))


def cross_ratio_lambda(p1, p2, p3, p4) -> mpc:
    """The Legendre parameter t of four branch points: the value of the
    Mobius map sending (p1, p2, p3) to (inf, 0, 1) at p4, which is the
    cross-ratio (p4 - p2)(p3 - p1) / ((p4 - p1)(p3 - p2)).

    The four points must be pairwise distinct (CollidingPoints names the
    first pair that is not), so the result is finite and avoids 0 and 1.
    After that check this is cross_ratio_unchecked, with its pole rule and
    accuracy contract.
    """
    points = [p1, p2, p3, p4]
    _require_distinct(points)
    return cross_ratio_unchecked(*[p if is_infinity(p) else to_complex(p) for p in points])


def cross_ratio_unchecked(p1, p2, p3, p4, difference=operator.sub) -> mpc:
    """cross_ratio_lambda for points already known to be pairwise distinct,
    each INFINITY or a finite mpc: the cross-ratio

        (p4 - p2)(p3 - p1) / ((p4 - p1)(p3 - p2))

    in mpc operators, with the factors that hold inf dropped (at most one
    point is inf).  ``difference(p, q)`` gives each finite difference p - q:
    a caller that meets the same points again may pass a memo of the same
    subtraction, which changes no bit.

    Pole rule: CollidingPoints when within_epsilon holds for the
    denominator's product (p4 - p1)(p3 - p2), which in exact arithmetic is
    the standard map's denominator c p4 + d with c = p3 - p2.  Accuracy:
    the modulus error is at most 16 units of 2^-mp.prec of the value's
    modulus, against the same formula at twice the working precision.
    """
    def product(p, q, r, s):
        if is_infinity(p) or is_infinity(q):
            return difference(r, s)
        if is_infinity(r) or is_infinity(s):
            return difference(p, q)
        return difference(p, q) * difference(r, s)
    den = product(p4, p1, p3, p2)
    if within_epsilon(den._mpc_):
        raise CollidingPoints("fourth point collides with the first within tolerance")
    return product(p4, p2, p3, p1) / den


def solve_quadratic(a, b, c) -> tuple[mpc, mpc]:
    """Both roots of a*x^2 + b*x + c = 0, in a deterministic order.

    The root with non-negative imaginary part comes first; ties are broken
    by descending real part.
    """
    a, b, c = to_complex(a), to_complex(b), to_complex(c)
    if within_epsilon(a._mpc_):
        raise DegenerateLeadingCoefficient("leading coefficient is zero within tolerance")
    disc = b * b - 4 * a * c
    root = sqrt(disc)
    r1 = (-b + root) / (2 * a)
    r2 = (-b - root) / (2 * a)

    def key(r):
        return (0 if r.imag >= 0 else 1, -float(r.real), -float(r.imag))

    r1, r2 = sorted((r1, r2), key=key)
    return r1, r2
