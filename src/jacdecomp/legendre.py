"""Legendre-form genus-1 curve bookkeeping.

A curve y^2 = x(x-1)(x-t) is admissible for t outside {0, 1}.  Two
parameters describe isomorphic curves exactly when they lie in the same
orbit of the six-element group generated by t -> 1/t and t -> 1 - t.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

from mpmath import mp, mpc, nstr
from mpmath.libmp import fone, fzero, mpc_sub, round_nearest

# cross_ratio_lambda is re-exported: it is the Legendre parameter t of four
# branch points normalized to (inf, 0, 1, t), which same_curve compares.
from .numerics import (  # noqa: F401
    INFINITY,
    DomainError,
    MobiusMap,
    NotInvolution,
    cross_ratio_lambda,
    entry_value,
    first_collision,
    first_near,
    format_point,
    near_entry,
    near_table,
    reciprocal_copy,
    sphere_copy,
    to_complex,
    to_double,
    to_point,
)


class InvalidDomain(DomainError):
    """A parameter tuple violates its admissibility domain."""


_BOUNDARY = near_table([0, 1, INFINITY])


def require_admissible(value, name: str = "lambda") -> mpc:
    """Check that a value is finite and not close to 0, 1 or inf."""
    lam = to_complex(value)
    admissible_entry(lam._mpc_, name)
    return lam


def admissible_entry(z, name: str = "lambda") -> tuple:
    """require_admissible for a finite raw ``_mpc_`` tuple z; returns its
    near_entry, so the double copy serves later orbit scans too."""
    entry = near_entry(z)
    k = first_near(entry, _BOUNDARY)
    if k is not None:
        raise InvalidDomain("%s = %s is not admissible (too close to %s)"
                            % (name, _shown(mp.make_mpc(z)), "inf" if k == 2 else "0 or 1"))
    return entry


def _shown(z) -> str:
    """format_point of a refused value; one with a part beyond the double
    range, which format_point refuses, has its parts in nstr at 17 digits."""
    try:
        return format_point(z)
    except ValueError:
        if not z.imag:
            return nstr(z.real, 17)
        return "%s%s%si" % (nstr(z.real, 17), "-" if z.imag < 0 else "+", nstr(abs(z.imag), 17))


def require_admissible_tuple(values, name: str = "lambda") -> list[mpc]:
    """Check a tuple of admissible, pairwise-distinct parameters."""
    out = [require_admissible(v, "%s_%d" % (name, i + 1)) for i, v in enumerate(values)]
    pair = first_collision(out)
    if pair is not None:
        raise _coincide(name, *pair, out[pair[0]])
    return out


def admit_next(table: list, values, name: str = "lambda") -> list:
    """require_admissible_tuple of the admitted tuple of near_table ``table``
    and the mpc ``values``, from the new values alone: their admissibility,
    then the pairs that hold one, in first_collision's (i, j) order and as it
    decides one; returns their near entries."""
    n = len(table)
    new = [admissible_entry(v._mpc_, "%s_%d" % (name, n + k + 1)) for k, v in enumerate(values)]
    entries = table + new
    for i, entry in enumerate(entries[:-1]):
        k = first_near(entry, entries[max(i + 1, n):])
        if k is not None:
            raise _coincide(name, i, max(i + 1, n) + k, entry_value(entry))
    return new


def _coincide(name: str, i: int, j: int, value) -> InvalidDomain:
    return InvalidDomain("%s_%d and %s_%d coincide within tolerance (%s)"
                         % (name, i + 1, name, j + 1, _shown(value)))


def orbit_images(t) -> list:
    """t, 1/t, 1 - t, 1/(1 - t), t/(t - 1), (t - 1)/t for a raw ``_mpc_``
    tuple t, as the raw tuples of those mpc expressions, with 1 - t and
    t - 1 each formed once."""
    t = mp.make_mpc(t)
    one_minus, minus_one = 1 - t, t - 1
    return [w._mpc_ for w in (t, 1 / t, one_minus, 1 / one_minus,
                              t / minus_one, minus_one / t)]


def _orbit_entries(t) -> list:
    """The near entries of the six orbit images of the raw tuple t, in
    orbit_images order.

    The sphere copies of t, o = 1 - t and -t/o are sphere_copy of t~, o~ and
    -t~/o~, with t~ and o~ the double copies of t and o; those of 1/t, 1/o
    and (t - 1)/t are their reciprocal_copy.  Each lies within 2^-48 of its
    point, as first_near requires: t~, o~ and the quotient add a few units
    of 2^-53.  When t~ or o~ has an infinite part, or o~ is 0, each copy is
    read from its image.  The images are orbit_images(t), built once when
    one of them is first read (entry_value)."""
    one_minus = mpc_sub((fone, fzero), t, mp.prec, round_nearest)
    td, od = to_double(t), to_double(one_minus)
    if not (cmath.isfinite(td) and cmath.isfinite(od) and od):
        return list(map(near_entry, orbit_images(t)))
    images: list = []

    def image(k):
        if not images:
            images.extend(orbit_images(t))
        return images[k]
    values = [t, lambda: image(1), one_minus, lambda: image(3), lambda: image(4), lambda: image(5)]
    copies = [sphere_copy(td, t), sphere_copy(od, one_minus), sphere_copy(-td / od, values[4])]
    return list(zip([c for copy in copies for c in (copy, reciprocal_copy(copy))], values))


def s3_orbit(value) -> list[mpc]:
    """The distinct images of t under the group generated by t -> 1/t and
    t -> 1 - t, in closed form (2, 3 or 6 values): each of orbit_images
    unless it lies within tolerance of one kept before it."""
    t = require_admissible(value)
    kept: list = []
    for entry in _orbit_entries(t._mpc_):
        if first_near(entry, kept) is None:
            kept.append(entry)
    return [entry_value(entry) for entry in kept]


class OrbitTable:
    """The S3 orbits of parameters, each built once (as near entries)
    and looked up by the parameter's value.  Orbits depend on the working
    precision and tolerance, so one table serves one command."""

    def __init__(self):
        self._orbits: dict = {}

    def orbit(self, value) -> list:
        """The near entries of the six orbit images of value; raises the
        errors of s3_orbit."""
        t = to_complex(value)
        entries = self._orbits.get(t._mpc_)
        if entries is None:
            admissible_entry(t._mpc_)
            entries = self._orbits[t._mpc_] = _orbit_entries(t._mpc_)
        return entries

    def same_curve(self, l1, l2) -> bool:
        """True when l2 lies within tolerance of one of the six orbit images
        of l1, whose orbit comes from this table."""
        entry = admissible_entry(to_complex(l2)._mpc_)
        return first_near(entry, self.orbit(l1)) is not None


def same_curve(l1, l2) -> bool:
    """True when the two parameters describe isomorphic genus-1 curves
    (one lookup in a fresh OrbitTable)."""
    return OrbitTable().same_curve(l1, l2)


def random_admissible(rng: random.Random, count: int) -> list[mpc]:
    """Draw parameters with parts in [-3, 3], at least 0.1 away from 0, 1
    and each other (seeded cross-checks and test sweeps)."""
    values: list[mpc] = []
    while len(values) < count:
        z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        if any(abs(z - v) < 0.1 for v in values):
            continue
        values.append(z)
    return values


@dataclass
class PairingResult:
    """Outcome of pairing a branch set under an involution."""

    pairs: list[tuple]
    offender: object = None

    @property
    def ok(self) -> bool:
        return self.offender is None


def branch_set_pairing(m: MobiusMap, points) -> PairingResult:
    """Pair up a branch set under an involution.

    Returns the induced fixed-point-free pairing when the map permutes the
    set; otherwise a failed result carrying the first offending point (one
    that is fixed, or whose image leaves the set).  Points are compared with
    close, through first_near over one near_table of the set.
    """
    if not m.is_involution():
        raise NotInvolution("map with matrix (%s, %s; %s, %s) is not an involution"
                            % (m.a, m.b, m.c, m.d))
    pts = [to_point(p) for p in points]
    table = near_table(pts)
    pairs: list[tuple] = []
    # The points before the first unpaired one are paired: a match at 0 is fixed
    unpaired = list(range(len(pts)))
    while unpaired:
        p = pts[unpaired[0]]
        k = first_near(near_table([m.apply(p)])[0], [table[j] for j in unpaired])
        if not k:
            return PairingResult(pairs, offender=p)
        pairs.append((p, pts[unpaired.pop(k)]))
        del unpaired[0]
    return PairingResult(pairs)
