"""diffalg benchmark: CLI commands end to end, and a traced per-layer run.

Run from the root of a diffalg checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--workload`` is ``verify``, ``reduce`` or ``classify`` (see workloads.py and
design.json).  The inputs are made from ``--seed`` in ``.bench_build/``; a
fresh worker process (worker.py) runs them through ``diffalg.cli.main`` in a
closed loop with one client.  Every answer is then checked against what the
input was built to give.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` a
fixed number of rounds runs twice, untraced and then traced, each in a fresh
process, and the per-layer metrics are printed.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every answer is right, 1 on a wrong answer and 2
when the benchmark cannot run (for example outside a diffalg checkout).

Times are scaled to a reference host speed.  The host this benchmark was
built on slows to about half speed for tens of seconds at a time, and a
run's raw times swing with it.  The worker times a fixed pure-Python kernel
between ops; each op's wall time is multiplied by REFERENCE_KERNEL_S over
the mean of the kernel times taken just before and just after it.  The raw
figures are printed too.

``python3 bench/run.py --selftest`` checks the harness itself (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150.0
SETUP_SAMPLES = 9  # process starts timed per run, the workload's own included
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile

# worker.calibrate() at full speed on the reference host (2-core x86-64
# container, Python 3.11); the unit that scaled times are expressed in.
REFERENCE_KERNEL_S = 0.00065

# Seconds a run spends per round of each workload on the seed commit, on the
# reference host with its usual slow phases, set-up and answer checks
# included.  A run does round(--seconds / ROUND_S) rounds, a fixed amount of
# work, so it takes about --seconds there, and every metric is taken over the
# same ops whatever the program's speed.
ROUND_S = {"verify": 7.0, "reduce": 3.3, "classify": 4.3}
# Rounds of the traced run; the counts depend only on the seed, so two traced
# runs of one seed give identical counts.
TRACE_ROUNDS = {"verify": 2, "reduce": 4, "classify": 2}


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2)."""


def _checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "diffalg" / "cli.py").is_file():
        raise BenchError(f"{root} is not a diffalg checkout: src/diffalg/cli.py is missing")
    for needed in ("tests/fixtures", "tests/golden"):
        if not (root / needed).is_dir():
            raise BenchError(f"{root} is not a diffalg checkout: {needed} is missing")
    src = str(root / "src")
    sys.path.insert(0, src)
    import diffalg
    if Path(diffalg.__file__).resolve().parent != (root / "src" / "diffalg").resolve():
        raise BenchError(f"diffalg imports from {diffalg.__file__}, not from {src}")
    return root


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _scale(kernel_s: float) -> float:
    return REFERENCE_KERNEL_S / kernel_s


class Worker:
    """One run of worker.py; ``setup_s`` is the time until it reports ready."""

    def __init__(self, root: Path, args: list):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(root / "src")] + args
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(),
                                     stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            self.raw_setup_s = time.perf_counter() - start
            if line.strip() != "ready":
                raise BenchError(f"worker did not start: {line!r}")
            key, _, value = self.proc.stdout.readline().partition(" ")
            if key != "calibration":
                raise BenchError(f"worker did not calibrate: {key!r}")
            self.setup_s = self.raw_setup_s * _scale(float(value))
        except BaseException:
            self.stop()
            raise

    def wait(self) -> None:
        try:
            self.proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            self.stop()
            raise BenchError(f"worker still running after {WORKER_TIMEOUT_S:.0f} s") from exc
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def measure_setup(root: Path, samples: int) -> list:
    """Scaled and raw times from process start to ``import diffalg.cli`` done."""
    times = []
    for _ in range(samples):
        worker = Worker(root, ["--setup-only"])
        worker.wait()
        times.append((worker.setup_s, worker.raw_setup_s))
    return times


def run_loop(root: Path, work: Path, tag: str, rounds: list, trace: bool) -> dict:
    """Run the op loop in a fresh worker; returns its result with each op judged."""
    ops_path = work / f"{tag}-ops.json"
    ops_path.write_text(json.dumps([[op.to_json() for op in r] for r in rounds]),
                        encoding="utf-8")
    paths = {name: work / f"{tag}-{name}" for name in ("result", "stdout", "stderr", "spans")}
    args = ["--ops", str(ops_path)]
    for name in ("result", "stdout", "stderr"):
        args += [f"--{name}", str(paths[name])]
    if trace:
        args += ["--spans", str(paths["spans"])]
    worker = Worker(root, args)
    worker.wait()
    result = json.loads(paths["result"].read_text(encoding="utf-8"))
    result["setup"] = (worker.setup_s, worker.raw_setup_s)
    result["spans_path"] = paths["spans"] if trace else None
    by_id = {op.op_id: op for r in rounds for op in r}
    out_bytes = paths["stdout"].read_bytes()
    err_bytes = paths["stderr"].read_bytes()
    judged = []
    for op_id, code, raised, raw, before, after, o0, o1, e0, e1 in result["ops"]:
        state, detail = checks.judge(by_id[op_id], code, raised,
                                     out_bytes[o0:o1].decode("utf-8"))
        if state != checks.OK and not detail:
            detail = err_bytes[e0:e1].decode("utf-8").strip()[:200]
        judged.append({"id": op_id, "state": state, "detail": detail, "raw": raw,
                       "wall": raw * _scale((before + after) / 2)})
    result["judged"] = judged
    return result


def latency_ms(judged: list, fraction: float, key: str = "wall") -> float:
    """Time at ``fraction`` (nearest rank); a failed op ranks slower than every success."""
    ranked = sorted(judged, key=lambda j: (j["state"] != checks.OK, j[key]))
    index = min(len(ranked) - 1, max(0, math.ceil(fraction * len(ranked)) - 1))
    return ranked[index][key] * 1000.0


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND ops beyond it."""
    return max(0, math.floor(100 * (count - TAIL_BEYOND) / count)) if count else 0


def _states(judged: list) -> dict:
    counts = {state: 0 for state in (checks.OK, checks.RAISED, checks.REFUSED, checks.WRONG)}
    for j in judged:
        counts[j["state"]] += 1
    return counts


def _report_failures(judged: list, label: str = "") -> None:
    for j in judged:
        if j["state"] != checks.OK:
            print(f"{j['state']}: op {j['id']}{label}: {j['detail']}")


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[name]))


def end_to_end(root: Path, work: Path, name: str, seed: int, seconds: float) -> tuple:
    rounds = workloads.build(name, root, seed, work, rounds_for(name, seconds))
    measure_setup(root, 1)  # warm-up: the first start in a checkout compiles bytecode
    setup = measure_setup(root, SETUP_SAMPLES - 1)
    result = run_loop(root, work, "e2e", rounds, trace=False)
    setup.append(result["setup"])
    judged = result["judged"]
    counts = _states(judged)
    attempted = len(judged)
    failed = attempted - counts[checks.OK]
    pct = tail_percentile(attempted)
    raw = {
        "setup_s": statistics.median(s for _, s in setup),
        "throughput_ops_s": counts[checks.OK] / sum(j["raw"] for j in judged),
        "latency_p50_ms": latency_ms(judged, 0.5, "raw"),
        "latency_tail_ms": latency_ms(judged, pct / 100.0, "raw"),
    }
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "throughput_ops_s": (counts[checks.OK] / sum(j["wall"] for j in judged), "ops/s"),
        "latency_p50_ms": (latency_ms(judged, 0.5), "ms"),
        "latency_tail_ms": (latency_ms(judged, pct / 100.0), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    print(f"workload: {name}  seed: {seed}  backend: {result['backend']}")
    print(f"ops: {attempted} in {len(rounds)} rounds; op loop {result['loop_wall_s']:.3f} s")
    _report_failures(judged)
    for key, (value, unit) in metrics.items():
        note = f"  (raw {_fmt(raw[key])})" if key in raw else ""
        if key == "setup_s":
            note += f"  (median of {len(setup)} process starts)"
        elif key == "latency_tail_ms":
            note += f"  (p{pct} of {attempted} ops)"
        print(f"{key}: {_fmt(value)} {unit}{note}")
    print(f"failed_share: {failed / attempted:.4f} ratio  ({failed} of {attempted}: "
          f"raised {counts[checks.RAISED]}, refused {counts[checks.REFUSED]}, "
          f"wrong {counts[checks.WRONG]})")
    return counts[checks.WRONG] == 0, attempted, failed, metrics


def traced(root: Path, work: Path, name: str, seed: int) -> tuple:
    rounds = workloads.build(name, root, seed, work, TRACE_ROUNDS[name])
    plain = run_loop(root, work, "plain", rounds, trace=False)
    traced_run = run_loop(root, work, "traced", rounds, trace=True)
    summary = tracing.aggregate(traced_run["spans_path"])
    metrics = dict(summary["metrics"])
    metrics["trace.overhead_share"] = (
        sum(j["wall"] for j in traced_run["judged"])
        / sum(j["wall"] for j in plain["judged"]) - 1.0, "ratio")
    judged = traced_run["judged"]
    wrong = [j for j in plain["judged"] + judged if j["state"] == checks.WRONG]
    attempted = len(judged)
    failed = sum(1 for j in judged if j["state"] != checks.OK)
    print(f"workload: {name}  seed: {seed}  backend: {traced_run['backend']}  traced")
    print(f"ops: {attempted} per pass; spans: {summary['spans']}; "
          f"op loop {plain['loop_wall_s']:.3f} s untraced, "
          f"{traced_run['loop_wall_s']:.3f} s traced")
    _report_failures(plain["judged"], " (untraced pass)")
    _report_failures(judged, " (traced pass)")
    for key, (value, unit) in metrics.items():
        base = summary["bases"].get(key)
        note = f"  (base {base[0]} = {base[1]})" if base else ""
        print(f"{key}: {_fmt(value)} {unit}{note}")
    for key in summary["absent"]:
        print(f"{key}: absent")
    return not wrong, attempted, failed, metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    """Print the closing JSON line; the exit code is 1 when any answer was wrong."""
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        root = _checkout_root()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main(root)
    work = root / ".bench_build" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            correct, attempted, failed, metrics = traced(root, work, args.workload, args.seed)
        else:
            correct, attempted, failed, metrics = end_to_end(
                root, work, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result_line(correct, attempted, failed, metrics)


if __name__ == "__main__":
    sys.exit(main())
