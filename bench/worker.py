"""One workload process: import the CLI, then run ops through ``diffalg.cli.main``.

Started by ``run.py``; not meant to be run by hand.  The process announces
``ready`` on its own stdout as soon as ``import diffalg.cli`` has finished,
which is where ``setup_s`` ends.  With ``--setup-only`` it exits there.

Otherwise it reads the op list, runs every op in a closed loop with one
thread, and sends each op's stdout and stderr to two files, recording where
each op's output starts and ends.  At the end it writes one JSON result
file, and the span file when ``--spans`` is given.

The host's speed drifts (it halves for tens of seconds at a time), so the
worker also times a fixed pure-Python kernel, ``calibrate``, between ops
whenever CALIBRATE_EVERY_S have passed since the last time, and records for
each op the kernel time measured last before it and first after it.  run.py uses them to scale op
times to a reference speed.  The kernel uses no Fraction, so it leaves the
traced scalar counts alone, and it runs outside every span and op timing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

CALIBRATE_EVERY_S = 0.02


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ops")
    parser.add_argument("--result")
    parser.add_argument("--stdout")
    parser.add_argument("--stderr")
    parser.add_argument("--spans")
    return parser.parse_args(argv)


_TABLE: dict = {}
_TABLE_SIZE = 1 << 16


def _kernel() -> int:
    """Fixed work in the style of the engine: small dicts with tuple keys,
    scattered lookups in a large one, tuple building, integer gcds."""
    if not _TABLE:
        for i in range(_TABLE_SIZE):
            _TABLE[(i % 251, i // 251)] = i
    small: dict = {}
    total = 0
    for i in range(1, 800):
        j = (i * 40503) % _TABLE_SIZE
        key = (j % 251, j // 251)
        num, den = _TABLE[key] * 7919 + i, i * 104729 + 1
        g = math.gcd(num, den)
        near = (i % 7, i % 5, i % 3)
        small[near] = small.get(near, 0) + num // g - den // g
        total += len(key + near[1:])
    return total


def calibrate() -> float:
    """Seconds the kernel takes now (the better of two runs)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def _run_op(main, argv):
    """(exit code or None, name of the exception raised or None)."""
    try:
        return main(argv), None
    except SystemExit as exc:  # argparse refuses bad arguments this way
        return exc.code, None
    except Exception as exc:  # noqa: BLE001 - a raised error is counted, the loop goes on
        print(f"{type(exc).__name__}: {str(exc)[:200]}", file=sys.stderr)
        return None, type(exc).__name__


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, args.src)
    import diffalg.cli
    print("ready", flush=True)
    print(f"calibration {calibrate()!r}", flush=True)
    if args.setup_only:
        return 0

    from diffalg.scalars import BACKEND

    with open(args.ops, encoding="utf-8") as fh:
        rounds = json.load(fh)
    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cli_main = diffalg.cli.main

    records = []
    real_stdout, real_stderr = sys.stdout, sys.stderr
    with open(args.stdout, "w", encoding="utf-8") as out, \
            open(args.stderr, "w", encoding="utf-8") as err:
        sys.stdout, sys.stderr = out, err
        try:
            loop_start = time.perf_counter()
            cal = calibrate()
            cal_at = time.perf_counter()
            for ops in rounds:
                for op in ops:
                    cal_before = cal
                    out_start, err_start = out.tell(), err.tell()
                    t0 = time.perf_counter()
                    if tracer is not None:
                        span = tracer.begin_op(len(records))
                    code, raised = _run_op(cli_main, op["argv"])
                    out.flush()
                    if tracer is not None:
                        tracer.close(span)
                    wall = time.perf_counter() - t0
                    err.flush()
                    if tracer is not None:
                        tracer.probes.append(tracing.probe_engine(diffalg.engine))
                    if time.perf_counter() - cal_at >= CALIBRATE_EVERY_S:
                        cal = calibrate()
                        cal_at = time.perf_counter()
                    records.append([op["id"], code, raised, wall, cal_before, cal,
                                    out_start, out.tell(), err_start, err.tell()])
            loop_wall = time.perf_counter() - loop_start
        finally:
            sys.stdout, sys.stderr = real_stdout, real_stderr
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"backend": BACKEND, "loop_wall_s": loop_wall,
                   "peak_rss_mb": peak_rss_mb, "ops": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
