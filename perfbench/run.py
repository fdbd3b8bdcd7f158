"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 15 --trace 0

Workloads: ``compile-suite``, ``serve-cold``, ``serve-hot`` (see
``perfbench/README.md``). With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` the per-layer metrics of a separate traced
run. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output check passed, 1 when one failed and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import Report, SetupError, import_program, stamp

WORKLOADS = ("compile-suite", "serve-cold", "serve-hot")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; held out: 2)")
    parser.add_argument("--seconds", type=int, default=10, help="run length the inputs are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the stamped result as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # The program's own tracing and caches stay off: the seed and the
    # generated DDGs are all the program sees.
    os.environ.pop("REPRO_TRACE", None)
    os.environ["REPRO_CACHE"] = "off"
    try:
        import_program()
        if args.workload == "compile-suite":
            from compile_suite import run
        elif args.workload == "serve-cold":
            from serve_load import run_cold as run
        else:
            from serve_load import run_hot as run
        report = Report({})
        run(args.seed, args.seconds, bool(args.trace), report)
    except SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    report.stamp = stamp(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        "off" if args.workload == "compile-suite" else "serve data dir",
    )
    return report.emit(args.out)


if __name__ == "__main__":
    sys.exit(main())
