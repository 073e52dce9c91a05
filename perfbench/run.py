"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the environment and a per-category latency table.  The
program is imported from ``src/`` beside this directory; without it the
script exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "cli_decompose", "cli_construct_verify")


def import_program() -> None:
    """Import jacdecomp from ``src/`` at its default precision, or exit with status 1."""
    os.environ.pop("JACDECOMP_PRECISION", None)
    if not (SRC / "jacdecomp" / "__init__.py").is_file():
        sys.exit("error: no jacdecomp sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import jacdecomp

    if Path(jacdecomp.__file__).resolve().parent != SRC / "jacdecomp":
        sys.exit("error: jacdecomp imported from %s, not %s" % (jacdecomp.__file__, SRC))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import harness
    from workloads import WORKLOADS

    round_fn = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = harness.environment(ROOT, args.workload, args.seed, args.seconds, trace)
    setup = None if trace else harness.SetupSampler(ROOT, args.seconds)
    harness.warm_up(round_fn, args.seed)
    tally, traced, tracer = harness.measure(round_fn, args.seed, args.seconds, trace,
                                            between_rounds=setup)

    attempted, failed = tally.attempted, tally.failed
    if trace:
        attempted += traced.attempted
        failed += traced.failed
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (traced.timed / tally.timed, "ratio")
    else:
        env["setup_samples_s"] = setup.finish()
        metrics = harness.end_to_end(tally, setup.times)

    print("env " + json.dumps(env, sort_keys=True))
    for label, values in harness.by_label(tally).items():
        print("op %-28s n=%-5d median_ms=%.4f" % (label, len(values),
                                                  statistics.median(values) * 1e3))
    print("samples n=%d beyond_p90=%d timed_s=%.3f"
          % (len(tally.latencies), tally.beyond_p90(), tally.timed))
    for name, (value, unit) in metrics.items():
        print("metric %-44s %.6g %s" % (name, value, unit))
    for failure in tally.failures + (traced.failures if trace else []):
        print("failed " + failure.replace("\n", " | "))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
