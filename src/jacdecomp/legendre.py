"""Legendre-form genus-1 curve bookkeeping.

A curve y^2 = x(x-1)(x-t) is admissible for t outside {0, 1}.  Two
parameters describe isomorphic curves exactly when they lie in the same
orbit of the six-element group generated by t -> 1/t and t -> 1 - t.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

from mpmath import mp, mpc

# cross_ratio_lambda is re-exported: it is the Legendre parameter t of four
# branch points normalized to (inf, 0, 1, t), which same_curve compares.
from .numerics import (  # noqa: F401
    DomainError,
    MobiusMap,
    NotInvolution,
    copy_entry,
    cross_ratio_lambda,
    entry_value,
    first_collision,
    first_near,
    format_point,
    near_entry,
    near_table,
    points_equal,
    to_complex,
    to_double,
    to_point,
)


class InvalidDomain(DomainError):
    """A parameter tuple violates its admissibility domain."""


_ZERO_ONE = near_table([0, 1])


def require_admissible(value, name: str = "lambda") -> mpc:
    """Check membership in the base domain (finite, away from 0 and 1)."""
    lam = to_complex(value)
    admissible_entry(lam._mpc_, name)
    return lam


def admissible_entry(z, name: str = "lambda") -> tuple:
    """require_admissible for a finite raw ``_mpc_`` tuple z; returns its
    near_entry, so the double copy serves later orbit scans too."""
    entry = near_entry(z)
    if first_near(entry, _ZERO_ONE) is not None:
        raise InvalidDomain("%s = %s is not admissible (too close to 0 or 1)"
                            % (name, format_point(mp.make_mpc(z))))
    return entry


def require_admissible_tuple(values, name: str = "lambda") -> list[mpc]:
    """Check a tuple of admissible, pairwise-distinct parameters."""
    out = [require_admissible(v, "%s_%d" % (name, i + 1)) for i, v in enumerate(values)]
    pair = first_collision(out)
    if pair is not None:
        i, j = pair
        raise InvalidDomain("%s_%d and %s_%d coincide within tolerance (%s)"
                            % (name, i + 1, name, j + 1, format_point(out[i])))
    return out


def orbit_images(t) -> list:
    """t, 1/t, 1 - t, 1/(1 - t), t/(t - 1), (t - 1)/t for a raw ``_mpc_``
    tuple t, as the raw tuples of those mpc expressions, with 1 - t and
    t - 1 each formed once."""
    t = mp.make_mpc(t)
    one_minus, minus_one = 1 - t, t - 1
    return [w._mpc_ for w in (t, 1 / t, one_minus, 1 / one_minus,
                              t / minus_one, minus_one / t)]


# |t| and |1 - t| in [_COPY_LOW, _COPY_HIGH] bound the orbit copies' error.
_COPY_LOW, _COPY_HIGH = 2.0 ** -1000, 2.0 ** 1000


def _orbit_entries(t) -> list:
    """The near entries of the distinct orbit images of the raw tuple t, in
    orbit_images order; an image close to an earlier kept one is dropped.

    The double copies are formed from t~ and o~, the double copies of t and
    of o = 1 - t (one mpc subtraction): t~, 1/t~, o~, 1/o~, -t~/o~ and
    -o~/t~.  While |t~| and |o~| lie in [2^-1000, 2^1000], each copy lies
    within 2^-48 of its image's modulus, plus 2^-1074 per part: t~ and o~
    round each part once, a double quotient adds a few units of 2^-53 and
    the mpc image differs from the exact quotient by a unit of 2^-mp.prec,
    so first_near's slack covers them.  Outside that range every entry gets
    the reach inf.  The images themselves are orbit_images(t), built the
    first time first_near or s3_orbit reads one of them (entry_value)."""
    one_minus = (1 - mp.make_mpc(t))._mpc_
    td, od = to_double(t), to_double(one_minus)
    images = functools.cache(functools.partial(orbit_images, t))
    values = [t, lambda: images()[1], one_minus, lambda: images()[3],
              lambda: images()[4], lambda: images()[5]]
    if _COPY_LOW <= abs(td) <= _COPY_HIGH and _COPY_LOW <= abs(od) <= _COPY_HIGH:
        entries = map(copy_entry, (td, 1 / td, od, 1 / od, -td / od, -od / td), values)
    else:
        entries = ((0j, math.inf, value) for value in values)
    kept: list = []
    for entry in entries:
        if first_near(entry, kept) is None:
            kept.append(entry)
    return kept


def s3_orbit(value) -> list[mpc]:
    """The distinct images of t under the group generated by t -> 1/t and
    t -> 1 - t, in closed form (2, 3 or 6 values): the orbit_images kept by
    _orbit_entries."""
    t = require_admissible(value)
    return [entry_value(entry) for entry in _orbit_entries(t._mpc_)]


class OrbitTable:
    """The S3 orbits of parameters, each built once (as near entries)
    and looked up by the parameter's value.  Orbits depend on the working
    precision and tolerance, so one table serves one command."""

    def __init__(self):
        self._orbits: dict = {}

    def orbit(self, value) -> list:
        """The near entries of s3_orbit(value), which raises the same
        errors."""
        t = to_complex(value)
        entries = self._orbits.get(t._mpc_)
        if entries is None:
            admissible_entry(t._mpc_)
            entries = self._orbits[t._mpc_] = _orbit_entries(t._mpc_)
        return entries

    def same_curve(self, l1, l2) -> bool:
        """True when l2 lies within tolerance of an orbit image of l1, whose
        orbit comes from this table."""
        entry = admissible_entry(to_complex(l2)._mpc_)
        return first_near(entry, self.orbit(l1)) is not None


def j_invariant(value) -> mpc:
    """256 (1 - t + t^2)^3 / (t^2 (1 - t)^2); constant on each parameter orbit."""
    lam = require_admissible(value)
    num = 256 * (1 - lam + lam * lam) ** 3
    return num / (lam * lam * (1 - lam) ** 2)


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

    pairs: list[tuple] = field(default_factory=list)
    offender: object = None

    @property
    def ok(self) -> bool:
        return self.offender is None


def branch_set_pairing(m: MobiusMap, points) -> PairingResult:
    """Pair up a branch set under an involution.

    Returns the induced fixed-point-free pairing when the map permutes the
    set; otherwise a failed result carrying the first offending point (one
    that is fixed, or whose image leaves the set).
    """
    if not m.is_involution():
        raise NotInvolution("map with matrix (%s, %s; %s, %s) is not an involution"
                            % (m.a, m.b, m.c, m.d))
    pts = [to_point(p) for p in points]
    result = PairingResult()
    used = [False] * len(pts)
    for i, p in enumerate(pts):
        if used[i]:
            continue
        image = m.apply(p)
        if points_equal(image, p):
            return PairingResult(pairs=result.pairs, offender=p)
        partner = None
        for j in range(len(pts)):
            if j != i and not used[j] and points_equal(image, pts[j]):
                partner = j
                break
        if partner is None:
            return PairingResult(pairs=result.pairs, offender=p)
        used[i] = used[partner] = True
        result.pairs.append((p, pts[partner]))
    return result
