"""Measurement loop, statistics, set-up timing and the environment record.

Load is one closed-loop client in one process: the next op starts only
after the previous one has returned and been checked.  Only ``op.call()``
is timed; input generation, output checks and the restoring of mpmath
state happen between timed regions.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

from jacdecomp import numerics

from tracing import ROOT, Tracer
from workloads import CheckFailed, Op

WARMUP_SECONDS = 1.0
MIN_BEYOND_P90 = 10          # samples that must lie above p90
WALL_LIMIT_SECONDS = 150.0   # stop extending a run past this, whatever it holds
SETUP_SAMPLES = 9

SETUP_SCRIPT = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import jacdecomp.cli
jacdecomp.cli.make_parser()
print(repr(time.perf_counter() - started))
"""


# ---------------------------------------------------------------------------
# Process-global numeric state


def default_state() -> tuple[int, mpmath.mpf]:
    return numerics.DEFAULT_PRECISION_BITS, mpmath.mpf(numerics.DEFAULT_EPSILON)


def restore_defaults() -> None:
    """Undo what ``cli.main`` sets for the whole process (precision, epsilon)."""
    numerics.set_precision(numerics.DEFAULT_PRECISION_BITS)
    numerics.set_epsilon(numerics.DEFAULT_EPSILON)


def require_defaults() -> None:
    prec, eps = default_state()
    if mpmath.mp.prec != prec or numerics.epsilon() != eps:
        raise RuntimeError("numeric state leaked between ops: precision %d, epsilon %s"
                           % (mpmath.mp.prec, numerics.epsilon()))


# ---------------------------------------------------------------------------
# Running ops


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def timed(self) -> float:
        return sum(self.latencies)

    def beyond_p90(self) -> int:
        if len(self.latencies) < 2:
            return 0
        p90 = percentile(self.latencies, 90)
        return sum(1 for x in self.latencies if x > p90)


def run_op(op: Op, tally: Tally, tracer: Tracer | None = None) -> None:
    """Run one op (traced when a tracer is given), check it, count it."""
    require_defaults()
    error = None
    if tracer is not None:
        tracer.patch()
        root = tracer.begin(ROOT)
    started = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # an op that raises counts as failed; the run goes on
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.end(root)
        tracer.unpatch()
        tracer.fold()
    restore_defaults()
    if error is None:
        try:
            op.check(result)
        except CheckFailed as exc:
            error = str(exc)
        except Exception:  # malformed output can break a check in any way
            error = traceback.format_exc(limit=2)
    tally.attempted += 1
    tally.latencies.append(elapsed)
    tally.labels.append(op.label)
    if error is not None:
        tally.failed += 1
        if len(tally.failures) < 5:
            tally.failures.append("%s: %s" % (op.label, error.strip()))


def warm_up(round_fn, seed: int) -> None:
    """Untimed ops from a round no measured run uses, for about ``WARMUP_SECONDS``."""
    started = time.perf_counter()
    for op in round_fn(seed, -1):
        run_op(op, Tally())
        if time.perf_counter() - started > WARMUP_SECONDS:
            break


def measure(round_fn, seed: int, seconds: float, trace: bool, between_rounds=None
            ) -> tuple[Tally, Tally | None, Tracer | None]:
    """Run whole rounds until the timed total reaches ``seconds`` and, for
    the end-to-end percentiles, at least ``MIN_BEYOND_P90`` samples lie
    beyond p90.

    With ``trace`` each op runs twice, untraced and traced, in alternating
    order; the untraced tally gives the overhead baseline and the traced
    run fills the tracer.  ``between_rounds``, if given, is called after
    each round with the untraced timed total.  Returns the untraced tally,
    the traced tally and the tracer (both None without ``trace``).
    """
    tally = Tally()
    tracer = Tracer() if trace else None
    traced_tally = Tally() if trace else None
    started = time.perf_counter()
    index = 0
    while True:
        for k, op in enumerate(round_fn(seed, index)):
            if tracer is None:
                run_op(op, tally)
            elif k % 2:
                run_op(op, tally)
                run_op(op, traced_tally, tracer)
            else:
                run_op(op, traced_tally, tracer)
                run_op(op, tally)
        index += 1
        if between_rounds is not None:
            between_rounds(tally.timed)
        if time.perf_counter() - started > WALL_LIMIT_SECONDS:
            print("warning: wall limit reached after %d rounds" % index, file=sys.stderr)
            break
        if not trace:
            if tally.timed >= seconds and tally.beyond_p90() >= MIN_BEYOND_P90:
                break
        elif tally.timed + traced_tally.timed >= seconds:
            break
    return tally, traced_tally, tracer


# ---------------------------------------------------------------------------
# Statistics and the end-to-end metrics


def percentile(values, pct: int) -> float:
    """``statistics.quantiles`` cut point (exclusive method) at ``pct``."""
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(tally: Tally, setup: list[float]) -> dict[str, tuple[float, str]]:
    lat = tally.latencies
    return {
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def by_label(tally: Tally) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for label, x in zip(tally.labels, tally.latencies):
        groups.setdefault(label, []).append(x)
    return dict(sorted(groups.items(), key=lambda kv: statistics.median(kv[1])))


# ---------------------------------------------------------------------------
# Set-up time and environment


class SetupSampler:
    """``import jacdecomp.cli`` plus ``make_parser()`` in fresh interpreters.

    Called between rounds with the timed total so far, it takes one sample
    at each of ``samples`` even steps of the run, so the samples span the
    run like the ops do rather than one moment of it.  One unrecorded run
    first writes the byte-code caches.
    """

    def __init__(self, root: Path, seconds: float, samples: int = SETUP_SAMPLES):
        self.argv = [sys.executable, "-E", "-s", "-c", SETUP_SCRIPT, str(root / "src")]
        self.env = {k: v for k, v in os.environ.items() if k != "JACDECOMP_PRECISION"}
        self.root = root
        self.step = seconds / samples
        self.samples = samples
        self.times: list[float] = []
        self._sample()

    def _sample(self) -> float:
        done = subprocess.run(self.argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60, check=True)
        return float(done.stdout.strip())

    def __call__(self, timed: float) -> None:
        if len(self.times) < self.samples and timed >= len(self.times) * self.step:
            self.times.append(self._sample())

    def finish(self) -> list[float]:
        while len(self.times) < self.samples:
            self.times.append(self._sample())
        return self.times


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    prec, eps = default_state()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "default_precision_bits": prec,
        "default_epsilon": str(eps),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(root),
    }
