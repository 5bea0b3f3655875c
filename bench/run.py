"""valueprover benchmark: end-to-end and per-layer metrics for four workloads.

One run measures one workload:

    python3 bench/run.py --workload search --seed 1 --seconds 42 --trace 0

It starts `worker.py` children one after another (a closed loop: the next
starts when the previous has exited), one per pass until `--seconds` is
spent, so every pass pays cold caches as a CLI call does. `--trace 0` prints
the end-to-end metrics; `--trace 1` runs one untraced and one traced pass
and prints the per-layer metrics and the tracing overhead. The last output
line is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. A failed correctness check prints `"correct": false` and exits 1;
a crashed child prints no result and exits 2.

    python3 bench/run.py --all [--seed N] [--seconds S] [--record FILE]

runs every workload with and without tracing and prints every metric by
name and unit. `--inject proof|count` corrupts one proof or one count before
the checks, which must then fail (see selftest.py).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKDIR = BENCH_DIR / ".work"
WORKLOADS = ("train", "train-actors2", "search", "oracle")

MIN_PASSES = 3  # so that each operation's time is a true median
RUN_LIMIT_S = 170  # a run must end within 180 s
PROFILE_BELLMAN_SHARE = 0.86  # earlier, uncommitted cProfile estimate

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_rel": "x_ref",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}
# The names the end-to-end metrics go by on each workload.
NAMED = {
    "train": {"pass": "train", "success_frac": "validation_success", "op": "episode"},
    "train-actors2": {"pass": "train", "success_frac": "validation_success", "op": "episode"},
    "search": {"pass": "search", "success_frac": "proved_frac", "op": "search"},
    "oracle": {"pass": "oracle", "success_frac": "provable_frac", "op": "oracle_call"},
}


class ChildFailed(Exception):
    """A worker exited abnormally or printed no result."""


def layer_unit(name: str) -> str:
    if name.endswith((".hit_rate", ".share", "_frac")):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int) -> int:
    """The highest whole percentile, up to 99, with ten samples beyond it."""
    return max(50, min(99, math.floor(100.0 - 1000.0 / count)))


def per_op_medians(passes: list[dict]) -> list[float]:
    """Each operation's median time over the passes of a run.

    Every pass runs the same operations in the same order (the two-actor
    worker sorts its episode times, which makes this a rank-wise median), so
    the median cancels the moment-to-moment speed swings of a shared machine
    that a tail pooled over all passes would pick up.
    """
    return [statistics.median(times) for times in zip(*(p["ops_ms"] for p in passes))]


def pass_rel(child: dict) -> float:
    """The pass time, less operations that raised, over the reference time.

    The reference loop, timed between operations all through the pass,
    slows down with the shared machine, so the ratio cancels most of the
    machine's swings in speed. An operation that raises runs with no
    reference sample inside it, so its time is left out here; it is still
    part of the pass time, which is printed as well.
    """
    return (child["pass_s"] - child["failed_ops_s"]) / child["reference_s"]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def spawn(workload: str, seed: int, mode: str, inject: str | None, timeout: float) -> dict:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    command += ["--workdir", str(WORKDIR)]
    if inject:
        command += ["--inject", inject]
    started = time.perf_counter()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"{mode} child exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, inject: str | None) -> tuple[dict, dict]:
    """Run the children; returns (last-line result, report for humans)."""
    started = time.perf_counter()
    WORKDIR.mkdir(exist_ok=True)

    def child(mode: str) -> dict:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        return spawn(workload, seed, mode, inject, timeout=max(remaining, 1.0))

    if trace:
        passes = [child("pass")]
        traced = child("traced")
        children = passes + [traced]
    else:
        passes = []
        estimate = 0.0
        while len(passes) < MIN_PASSES or time.perf_counter() - started + estimate <= seconds:
            passes.append(child("pass"))
            estimate = max(c["wall_s"] for c in passes)
            if passes[-1]["errors"]:
                break
        children = passes

    errors = [e for c in children for e in c["errors"]]
    if not errors:
        first = passes[0]["counts"]
        if any(p["counts"] != first for p in passes[1:]):
            errors.append("deterministic counts differ between passes")
    measured = [c for c in children if "pass_s" in c]
    attempted = sum(c["attempted"] for c in measured)
    failed = sum(c["failed"] for c in measured)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "sizes": children[0]["sizes"],
        "children": len(children),
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else None,
    }
    metrics: dict[str, float] = {}
    if not errors:
        report["counts"] = passes[0]["counts"]
        report["info"] = passes[0]["info"]
        if trace:
            metrics = dict(traced["layers"])
            overhead = traced["pass_s"] - passes[0]["pass_s"]
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_frac"] = overhead / passes[0]["pass_s"]
            report["untraced_pass_s"] = passes[0]["pass_s"]
        else:
            ops = per_op_medians(passes)
            tail = tail_percentile(len(ops))
            metrics = {
                "setup_s": statistics.median(c["setup_s"] for c in children),
                "pass_rel": statistics.median(pass_rel(p) for p in passes),
                "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
                "success_frac": statistics.fmean(p["success"] for p in passes),
            }
            report.update(
                passes=len(passes),
                ops_per_pass=len(ops),
                reference_ms=statistics.median(p["reference_s"] for p in passes) * 1000.0,
                pass_s=statistics.median(p["pass_s"] for p in passes),
                failed_ops_s=statistics.median(p["failed_ops_s"] for p in passes),
                op_p50_ms=statistics.median(ops),
                tail_percentile=tail,
                op_tail_ms=percentile(ops, tail),
            )
    result = {
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layer_unit(name) if trace else END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }
    return result, report


def named_lines(result: dict, report: dict) -> list[str]:
    """The metrics under the names they go by on this workload."""
    workload = report["workload"]
    names = NAMED[workload]
    lines = []
    shown = {"pass_rel": f"{names['pass']}_rel"}
    for name, entry in result["metrics"].items():
        lines.append(f"metric {shown.get(name, names.get(name, name))} {entry['value']:.6g} {entry['unit']}")
    if "op_tail_ms" in report:
        lines.append(f"metric {names['pass']}_s {report['pass_s']:.6g} s")
        lines.append(f"metric failed_ops_s {report['failed_ops_s']:.6g} s")
        lines.append(f"metric {names['op']}_p50_ms {report['op_p50_ms']:.6g} ms")
        lines.append(f"metric {names['op']}_p{report['tail_percentile']}_ms {report['op_tail_ms']:.6g} ms")
    if report.get("failed_frac") is not None:
        lines.append(f"metric failed_frac {report['failed_frac']:.6g} ratio ({report['failed']} of {report['attempted']})")
    if "ops_per_pass" in report:
        lines.append(
            f"note {names['op']} percentiles over {report['ops_per_pass']} operations, each the median of "
            f"{report['passes']} passes; p{report['tail_percentile']} is the highest with ten beyond it; "
            f"setup_s is the median of {report['passes']} set-ups; "
            f"{names['pass']}_rel is in units of the {report['reference_ms']:.3g}-ms reference loop "
            f"and leaves out failed_ops_s"
        )
    share = result["metrics"].get("value_model.bellman_target.share")
    if share and workload.startswith("train"):
        lines.append(
            f"note bellman_target share of the traced train pass {share['value']:.3f} "
            f"(earlier cProfile estimate {PROFILE_BELLMAN_SHARE})"
        )
    return lines


def run_one(args) -> int:
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.inject)
    except ChildFailed as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    for error in report["errors"]:
        print(f"check failed: {error}")
    for line in named_lines(result, report):
        print(line)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    records = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_LIMIT_S + 30, cwd=ROOT)
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            for line in lines:
                if line.startswith(("metric ", "note ", "check failed")):
                    print("  " + line)
            if proc.returncode != 0:
                status = 1
                print(proc.stderr.strip()[-2000:])
                continue
            report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
            records.append({"report": report, "result": json.loads(lines[-1])})
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"command": sys.argv, "runs": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("proof", "count"), help="corrupt one result before the checks")
    parser.add_argument("--record", help="with --all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "valueprover").is_dir():
        print(f"run.py: no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
