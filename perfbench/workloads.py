"""The three benchmark workloads: seeded inputs, the timed op, the output check.

A workload is a stream of *rounds*.  Round ``i`` of workload ``w`` under seed
``n`` is drawn from ``random.Random("n:w:i")``, so the same seed always gives
the same inputs, and rounds can be generated lazily one at a time.  Every
round holds the same op *categories*, in a shuffled order; the harness
measures whole rounds only, so the op mix of a run is fixed and only the
drawn parameters vary with the seed.

Category weights put the median and p90 inside a dense group of categories
of similar latency, not on the gap between two groups, where they would jump
from run to run (README.md gives the groups).

Each op is an ``Op``: ``call`` is the only part that is timed; ``check``
runs afterwards, outside the timed region, and raises ``CheckFailed`` when
the output is wrong.  Expected values come from closed forms and from the
drawn inputs, never from the program under test.

Workloads (see README.md for the layer map):

* ``sweep`` -- library calls only.  One op builds one model (reducible s or
  irreducible r, every size 3..10, with s = r = 7 and r = 10 weighted up),
  decomposes it, takes ``quotient_genus`` on three seeded functionals and
  ``fixed_point_count`` on the generators.  Loads ``cover``; ``legendre``
  and ``cli`` do no work.
* ``cli_decompose`` -- in-process ``jacdecomp decompose ... --format json``
  on irreducible tuples (tagging mostly misses), solver chains (tagging
  mostly hits) and the genus-9 family.  Loads orbit tagging
  (``legendre.same_curve``/``s3_orbit``) and JSON rendering.
* ``cli_construct_verify`` -- in-process ``construct`` for every
  construction and ``verify`` for every check, some at ``--precision 256``,
  some invalid and expected to exit 2.  Loads solvers, equation derivation,
  cross-checks, literal parsing and the error paths; ``decompose`` and
  tagging do little.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from mpmath import mpc

from jacdecomp import cli, cover
from jacdecomp import constructions as cons


class CheckFailed(Exception):
    """An op's output disagrees with the expected result."""


@dataclass
class Op:
    label: str                      # op category, fixed per round slot
    inputs: tuple                   # what the op is given, for reports and tests
    call: Callable[[], object]      # the timed part
    check: Callable[[object], None]  # untimed; raises CheckFailed


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Seeded inputs


def random_admissible(rng: random.Random, count: int, spread=3.0, gap=0.1) -> list[complex]:
    """Complex parameters in a square of half-width ``spread``, at least
    ``gap`` away from 0, 1 and each other (the style of the test helpers)."""
    values: list[complex] = []
    while len(values) < count:
        z = complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        if abs(z) < gap or abs(z - 1) < gap:
            continue
        if any(abs(z - v) < gap for v in values):
            continue
        values.append(z)
    return values


def well_separated(values, gap=0.05, limit=1e3) -> bool:
    """True when the values, 0 and 1 are pairwise ``gap`` apart and bounded."""
    pts = [0j, 1 + 0j] + list(values)
    if any(abs(p) > limit for p in pts):
        return False
    return all(abs(pts[i] - pts[j]) >= gap
               for i in range(len(pts)) for j in range(i + 1, len(pts)))


def literal(z: complex) -> str:
    """A 17-significant-digit literal, the form the JSON output renders."""
    re_s = "%.17g" % z.real
    if z.imag == 0:
        return re_s
    return "%s%s%.17gi" % (re_s, "-" if z.imag < 0 else "+", abs(z.imag))


def literals(values) -> str:
    return ",".join(literal(v) for v in values)


def reducible_genus(s: int) -> int:
    return 1 + (1 << (s - 2)) * (s - 2)


def irreducible_genus(r: int) -> int:
    return 1 + (1 << (r - 2)) * (r - 1)


def _round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random("%d:%s:%d" % (seed, workload, index))


# ---------------------------------------------------------------------------
# sweep: library calls, cover combinatorics


@dataclass
class SweepResult:
    model: object
    report: object
    quotient_genera: list
    fixed_points: list


def _build(family: str, args: list):
    if family == "reducible":
        pairs = tuple((args[k], args[k + 1]) for k in range(1, len(args), 2))
        return cons.build_reducible(cons.ReducibleParams(args[0], pairs))
    return cons.build_irreducible(args)


def _sweep_call(family: str, args: list, functionals, generators):
    def call():
        model = _build(family, args)
        report = cover.decompose(model)
        genera = [cover.quotient_genus(model, f) for f in functionals]
        fixed = [cover.fixed_point_count(model, g) for g in generators]
        return SweepResult(model, report, genera, fixed)
    return call


def _sweep_check(rank: int, genus: int, functionals, fixed_expected):
    def check(res: SweepResult):
        report = res.report
        expect(res.model.rank == rank, "rank %d, want %d" % (res.model.rank, rank))
        expect(report.kani_rosen_ok, "kani_rosen_ok is false")
        expect(report.total_genus == genus,
               "total genus %d, want %d" % (report.total_genus, genus))
        expect(report.genus_sum == genus,
               "genus_sum %d, want %d" % (report.genus_sum, genus))
        by_functional = {f: curve.genus for f, curve in report.factors}
        expect(sum(by_functional.values()) == genus, "factor genera do not sum to genus")
        for f, g in zip(functionals, res.quotient_genera):
            expect(g == by_functional.get(f, 0),
                   "quotient_genus(%s) = %d, factor genus %d"
                   % (bin(f), g, by_functional.get(f, 0)))
        expect(res.fixed_points == fixed_expected,
               "fixed points %s, want %s" % (res.fixed_points, fixed_expected))
    return check


def _sweep_op(rng: random.Random, family: str, size: int) -> Op:
    if family == "reducible":
        rank = size - 1
        values = random_admissible(rng, 2 * size - 3)
        genus = reducible_genus(size)
        fixed = [1 << rank] * (rank + 1)
    else:
        rank = size
        values = random_admissible(rng, size)
        genus = irreducible_genus(size)
        fixed = [1 << (rank - 1)] * rank + [3 << (rank - 1)]
    generators = [1 << j for j in range(rank)] + [(1 << rank) - 1]
    functionals = [rng.randrange(1, 1 << rank) for _ in range(3)]
    args = [mpc(z) for z in values]
    return Op("%s_%d" % (family, size), (tuple(values), tuple(functionals)),
              _sweep_call(family, args, functionals, generators),
              _sweep_check(rank, genus, functionals, fixed))


def sweep_round(seed: int, index: int) -> list[Op]:
    rng = _round_rng(seed, "sweep", index)
    slots = ([("reducible", s) for s in range(3, 11)]
             + [("irreducible", r) for r in range(3, 11)]
             + [("reducible", 7), ("irreducible", 7), ("irreducible", 10), ("irreducible", 10)])
    rng.shuffle(slots)
    return [_sweep_op(rng, family, size) for family, size in slots]


# ---------------------------------------------------------------------------
# In-process CLI ops


@dataclass
class CliResult:
    status: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """``jacdecomp <argv>`` in this process, with stdout and stderr captured.

    ``cli.main`` leaves its precision and epsilon in process-global state;
    the harness restores both after every op.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 2
    return CliResult(status, out.getvalue(), err.getvalue())


def _cli_op(label: str, argv: list[str], check: Callable[[dict], None] | None,
            status: int = 0) -> Op:
    def full_check(res: CliResult):
        expect(res.status == status, "exit status %r, want %d (stderr: %s)"
               % (res.status, status, res.err.strip()[:200]))
        if status == 2:
            expect(res.out == "", "error exit wrote to stdout")
            expect(res.err.startswith("error: "), "no one-line error message")
            return
        try:
            payload = json.loads(res.out)
        except ValueError as exc:
            raise CheckFailed("stdout is not JSON: %s" % exc) from exc
        if check is not None:
            check(payload)
    return Op(label, tuple(argv), lambda: run_cli(argv), full_check)


def _check_decomposition(payload: dict, genus: int) -> None:
    expect(payload["genus"] == genus, "genus %r, want %d" % (payload["genus"], genus))
    expect(payload["genus_sum"] == genus, "genus_sum %r, want %d"
           % (payload["genus_sum"], genus))
    expect(sum(f["genus"] for f in payload["factors"]) == genus,
           "factor genera do not sum to the genus")
    expect(payload["kani_rosen_ok"] is True, "kani_rosen_ok is not true")


def _tags(payload: dict) -> set:
    return {f["orbit_of"] for f in payload["factors"] if f["genus"] == 1}


# ---------------------------------------------------------------------------
# cli_decompose: orbit tagging and rendering


def _decompose_irreducible(rng: random.Random, r: int) -> Op:
    lits = [literal(z) for z in random_admissible(rng, r)]

    def check(payload):
        _check_decomposition(payload, irreducible_genus(r))
        by_functional = {f["functional"]: f for f in payload["factors"]}
        for j, lit in enumerate(lits):
            bits = "".join("1" if k == j else "0" for k in range(r))
            entry = by_functional.get(bits)
            expect(entry is not None and entry["genus"] == 1,
                   "no genus-1 factor for weight-one functional %s" % bits)
            expect(entry["orbit_of"] == lit,
                   "functional %s tagged %r, want its own lambda %s"
                   % (bits, entry["orbit_of"], lit))
    return _cli_op("decompose_irreducible_r%d" % r,
                   ["decompose", "irreducible", "--lambdas=" + ",".join(lits),
                    "--format", "json"], check)


def _decompose_chain(rng: random.Random, r: int) -> Op:
    lits = [literal(z) for z in random_admissible(rng, r)]
    padded = r if r % 2 else r + 1
    s = (padded + 3) // 2

    def check(payload):
        _check_decomposition(payload, reducible_genus(s))
        expect(len(payload["construction"]["chain"]) == padded,
               "chain length %d, want %d" % (len(payload["construction"]["chain"]), padded))
        missing = set(lits) - _tags(payload)
        expect(not missing, "prescribed factors not tagged: %s" % sorted(missing))
    return _cli_op("decompose_chain_r%d" % r,
                   ["decompose", "reducible", "--chain=" + ",".join(lits),
                    "--format", "json"], check)


def _genus9_inputs(rng: random.Random) -> tuple[complex, complex]:
    """(lambda, mu) whose derived genus-9 parameters are well separated."""
    while True:
        lam, mu = random_admissible(rng, 2)
        derived = [lam, mu, lam / mu, lam * (mu - 1) / (mu - lam), (mu - lam) / (mu - 1)]
        if well_separated(derived):
            return lam, mu


def _decompose_genus9(rng: random.Random) -> Op:
    lam, mu = _genus9_inputs(rng)

    def check(payload):
        _check_decomposition(payload, 9)
        expect(literal(lam) in _tags(payload), "lambda not tagged")
    return _cli_op("decompose_genus9",
                   ["decompose", "genus9", "--lambda=" + literal(lam),
                    "--mu=" + literal(mu), "--format", "json"], check)


def cli_decompose_round(seed: int, index: int) -> list[Op]:
    rng = _round_rng(seed, "cli_decompose", index)
    slots = ([partial(_decompose_irreducible, r=r) for r in (6, 6, 7, 7, 7)]
             + [partial(_decompose_chain, r=r) for r in range(5, 12)]
             + [_decompose_genus9])
    rng.shuffle(slots)
    return [make(rng) for make in slots]


# ---------------------------------------------------------------------------
# cli_construct_verify: solvers, equations, cross-checks, parsing, errors


def _check_construct(genus: int, equations: int):
    def check(payload):
        expect(payload["genus"] == genus, "genus %r, want %d" % (payload["genus"], genus))
        expect(len(payload["equations"]) == equations, "%d equations, want %d"
               % (len(payload["equations"]), equations))
    return check


def _check_verify_ok(payload):
    failed = sorted(k for k, v in payload["checks"].items() if not v["pass"])
    expect(payload["ok"] is True and not failed, "verify failed: %s" % failed)


def _g5_inputs(rng: random.Random) -> tuple[complex, complex]:
    while True:
        l1, l2 = random_admissible(rng, 2)
        if well_separated([l1, l2, l1 / l2]):
            return l1, l2


def _g13_residual(l1: complex, l2: complex) -> complex:
    return l2 * l2 * (1 + l1) - 4 * l1 * l2 + l1 * (1 + l1)


def _g13_inputs(rng: random.Random, shift: float = 0.0) -> tuple[complex, complex]:
    """A point on the genus-13 constraint ``_g13_residual(l1, l2) = 0``, i.e.
    l2 = (2 l1 +- (1 - l1) sqrt(-l1)) / (1 + l1), with l2 then moved by
    ``shift``; its derived parameters are well separated."""
    while True:
        (l1,) = random_admissible(rng, 1)
        sign = rng.choice((1, -1))
        l2 = (2 * l1 + sign * (1 - l1) * (-l1) ** 0.5) / (1 + l1) + shift
        derived = [l1, l2, l1 / l2, l1 * (l2 - 1) / (l2 - l1)]
        if well_separated(derived) and (shift == 0 or abs(_g13_residual(l1, l2)) > 1e-3):
            return l1, l2


def _construct_verify_op(rng: random.Random, slot: str) -> Op:
    fmt = "--format", "json"
    if slot == "construct_genus2":
        l1, l2 = random_admissible(rng, 2)
        return _cli_op(slot, ["construct", "genus2", "--l1=" + literal(l1),
                              "--l2=" + literal(l2), *fmt], _check_construct(2, 1))
    if slot == "construct_reducible_mu":
        draw = random_admissible(rng, 5)
        return _cli_op(slot, ["construct", "reducible", "--lambda=" + literal(draw[0]),
                              "--mu=" + literals(draw[1:]), *fmt],
                       _check_construct(reducible_genus(4), 7))
    if slot in ("construct_chain_r5", "construct_chain_r7_p256"):
        r = 5 if slot == "construct_chain_r5" else 7
        s = (r + 3) // 2
        argv = ["construct", "reducible", "--chain=" + literals(random_admissible(rng, r)),
                *fmt]
        if slot.endswith("p256"):
            argv += ["--precision", "256"]
        return _cli_op(slot, argv, _check_construct(reducible_genus(s), (1 << (s - 1)) - 1))
    if slot == "construct_irreducible_r5":
        return _cli_op(slot, ["construct", "irreducible",
                              "--lambdas=" + literals(random_admissible(rng, 5)), *fmt],
                       _check_construct(irreducible_genus(5), 5))
    if slot == "construct_genus9":
        lam, mu = _genus9_inputs(rng)
        return _cli_op(slot, ["construct", "genus9", "--lambda=" + literal(lam),
                              "--mu=" + literal(mu), *fmt], _check_construct(9, 7))
    if slot == "verify_g5":
        l1, l2 = _g5_inputs(rng)
        return _cli_op(slot, ["verify", "g5", "--l1=" + literal(l1), "--l2=" + literal(l2),
                              *fmt], _check_verify_ok)
    if slot == "verify_g13":
        l1, l2 = _g13_inputs(rng)
        return _cli_op(slot, ["verify", "g13", "--l1=" + literal(l1),
                              "--l2=" + literal(l2), *fmt], _check_verify_ok)
    if slot == "verify_g13_violated":
        l1, l2 = _g13_inputs(rng, shift=0.25)

        def violated(payload):
            expect(payload["ok"] is False, "ok is not false")
            expect(payload["checks"]["constraint"]["pass"] is False,
                   "constraint check passed off the constraint")
        return _cli_op(slot, ["verify", "g13", "--l1=" + literal(l1),
                              "--l2=" + literal(l2), *fmt], violated, status=1)
    if slot.startswith("verify_crosscheck_s"):
        s = int(slot[len("verify_crosscheck_s")])
        argv = ["verify", "crosscheck", "--s", str(s),
                "--seed", str(rng.randrange(1 << 30)), *fmt]
        if slot.endswith("p256"):
            argv += ["--precision", "256"]
        return _cli_op(slot, argv, _check_verify_ok)
    if slot == "verify_identities":
        return _cli_op(slot, ["verify", "identities", "--max", "24", *fmt], _check_verify_ok)
    if slot == "verify_bound":
        return _cli_op(slot, ["verify", "bound", "--r", str(rng.randint(4, 12)), *fmt],
                       _check_verify_ok)
    if slot == "invalid_domain":  # an inadmissible or a colliding parameter
        values = [literal(z) for z in random_admissible(rng, 3)]
        if rng.random() < 0.5:
            bad = rng.choice(("0", "1", "1e-12", "1+1e-12i"))
        else:
            bad = rng.choice(values)
        values.insert(rng.randrange(4), bad)
        return _cli_op(slot, ["construct", "irreducible", "--lambdas=" + ",".join(values),
                              *fmt], None, status=2)
    if slot == "invalid_malformed":
        good = literal(random_admissible(rng, 1)[0])
        bad = rng.choice(("2+3j", "1//2", "abc", "1+2i+3i", "(2+i", "1/0", ""))
        return _cli_op(slot, ["verify", "g5", "--l1=" + good, "--l2=" + bad, *fmt],
                       None, status=2)
    raise ValueError("unknown slot %r" % slot)


CONSTRUCT_VERIFY_SLOTS = (
    "construct_genus2", "construct_reducible_mu", "construct_chain_r5",
    "construct_chain_r7_p256", "construct_irreducible_r5", "construct_genus9",
    "verify_g5", "verify_g13", "verify_g13_violated",
    "verify_crosscheck_s3", "verify_crosscheck_s4_p256", "verify_crosscheck_s5",
    "verify_crosscheck_s5", "verify_crosscheck_s6", "verify_identities", "verify_bound",
    "invalid_domain", "invalid_malformed",
)


def cli_construct_verify_round(seed: int, index: int) -> list[Op]:
    rng = _round_rng(seed, "cli_construct_verify", index)
    slots = list(CONSTRUCT_VERIFY_SLOTS)
    rng.shuffle(slots)
    return [_construct_verify_op(rng, slot) for slot in slots]


WORKLOADS = {
    "sweep": sweep_round,
    "cli_decompose": cli_decompose_round,
    "cli_construct_verify": cli_construct_verify_round,
}
