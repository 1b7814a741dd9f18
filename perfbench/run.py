"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload campaign|select|serve \\
        [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--record]

Every workload does a fixed amount of work, sized so that it measures
for about the ``run_seconds`` of BENCHMARK.json on a 2-vCPU host;
``--seconds`` is accepted for that interface but does not scale the work,
so two commits always measure the same work.  ``--trace 0`` measures the
end-to-end metrics with no tracing;
``--trace 1`` makes the traced run and prints the per-layer metrics.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report (host fingerprint, checks, workload-named figures).
``--record`` stores this run's output digest as the reference for its
seed.  The default seed is 1; 9001 is the held-out seed.

Exits 2 without a result when the program's sources are missing or the
environment sets ``REPRO_CACHE_DIR`` / ``REPRO_FAULTS``.
"""

from __future__ import annotations

import argparse
import sys

from common import (
    DEFAULT_SEED,
    BenchError,
    environment_guard,
    host_fingerprint,
    now,
    print_report,
    require_program,
    result_line,
    use_program_sources,
)

WORKLOADS = ("campaign", "select", "serve")


def load_workload(name: str):
    if name == "campaign":
        import campaign_wl as module
    elif name == "select":
        import select_wl as module
    else:
        import serve_wl as module
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (self-tests only)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digest as reference")
    args = parser.parse_args(argv)
    try:
        require_program()
        environment_guard()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    use_program_sources()
    host = host_fingerprint()
    start = now()
    module = load_workload(args.workload)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             tiny=args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record and outcome.output_digest is not None:
        from references import record_digest

        size, value = outcome.output_digest
        record_digest(args.workload, size, args.seed, value)
    print_report(args.workload, args.seed, host, outcome, now() - start)
    print(result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
