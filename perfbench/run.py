"""Benchmark of dlperiods: table sweeps and element values, end to end and per layer.

    python3 perfbench/run.py --workload unitary --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Every solve runs in a fresh single-threaded Python process (worker.py), so the
library's caches start cold as they do for a user.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the fastest set-up
over the run's solves; first-result time and values per second from each
step's fastest time over the solves; the share of values that succeeded; and
peak memory of the solve.
--trace 1 runs one untraced and one traced solve and prints the per-layer
metrics of BENCHMARK.json, including the tracing overhead.

Outputs are checked outside the timed part; a failed check fails the run.
The last line of standard output is one JSON object; details go to
perfbench/results/.  The digests in perfbench/reference.json were recorded
when the benchmark was added.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

MIN_SOLVES = 5  # solves per run, however long they take
RUN_LIMIT_S = 170  # every worker must end within this many seconds of the start
REFERENCE = os.path.join(HERE, "reference.json")
RESULTS = os.path.join(HERE, "results")


class WorkerError(RuntimeError):
    pass


def call_worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    # A fixed hash seed makes set iteration, and so the per-layer counts,
    # repeat exactly between runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# machine facts


def git_sha():
    """HEAD of the checkout, or "unknown" where it is not a git work tree."""
    # The ceiling keeps git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def speed_probe_ms():
    """Median time of a fixed pure-Python loop, to show machine drift."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t) * 1000)
    return wl.median(times)


def machine_facts(seed):
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "seed": seed,
        "speed_probe_ms": speed_probe_ms(),
    }


# ---------------------------------------------------------------------------
# checks against the reference


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def reference_checks(workload, digests, reference):
    """Digest checks: each instance with a reference digest must match it.

    An instance that newly succeeds has no digest and is checked by the
    invariants only; one that has a digest but no longer builds fails.
    """
    ref = reference.get(workload, {})
    checks = {}
    for label, digest in sorted(ref.items()):
        got = digests.get(label)
        if got is None:
            checks[f"{label} digest"] = (False, "built at the reference commit, fails now")
        else:
            checks[f"{label} digest"] = (got == digest, "matches the reference" if got == digest else f"{got[:12]} != {digest[:12]}")
    for label in sorted(set(digests) - set(ref)):
        checks[f"{label} digest"] = (True, "new instance, invariants only")
    return checks


# ---------------------------------------------------------------------------


def solve(args, deadline, trace=0):
    return call_worker(["--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)], deadline)


def solve_runs(args, deadline):
    """Untraced solves until --seconds of solving are measured and at least
    MIN_SOLVES have run."""
    solves = []
    while len(solves) < MIN_SOLVES or sum(r["solve_s"] for r in solves) < args.seconds:
        solves.append(solve(args, deadline))
    return solves


def end_to_end(solves):
    """Set-up time is the fastest over the solves' processes.  The solve is
    timed step by step (one class stage, DL table or value each), and each step
    counts at its fastest over the run's solves, which do the same steps in the
    same order: on a shared machine, noise only ever adds time, and it changes
    from one solve to the next (see WORKLOADS.md, "Machine noise")."""
    steps = [min(times) for times in zip(*(s["steps"] for s in solves))]
    attempted = sum(s["attempted"] for s in solves)
    failed = sum(s["failed"] for s in solves)
    return {
        "setup_s": min(s["setup_s"] for s in solves),
        "first_result_s": sum(steps[: solves[0]["first_steps"]]),
        "values_per_s": (solves[0]["attempted"] - solves[0]["failed"]) / sum(steps),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": wl.median([s["peak_rss_mb"] for s in solves]),
    }


def print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {units[name]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isdir(os.path.join(ROOT, "src", "dlperiods")):
        print(f"error: no library at {os.path.join(ROOT, 'src', 'dlperiods')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    facts = machine_facts(args.seed)
    try:
        if args.trace:
            solves, traced = [solve(args, deadline)], solve(args, deadline, trace=1)
        else:
            solves, traced = solve_runs(args, deadline), None
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = solves + ([traced] if traced else [])
    reference = load_reference()
    checks = {}  # a check fails if it fails in any solve
    for r in runs:
        for name, (ok, detail) in [*r["checks"].items(), *reference_checks(args.workload, r["digests"], reference).items()]:
            if not ok or name not in checks:
                checks[name] = (ok, detail)
    correct = all(ok for ok, _ in checks.values())

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = traced["solve_s"] / solves[0]["solve_s"]
    else:
        metrics = end_to_end(solves)
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in units}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = runs[0]["failures"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print_table("end to end" if not args.trace else "per layer (traced solve)", metrics, units)
    if args.trace:
        print(f"  tracing overhead: traced solve {traced['solve_s']:.3f} s against untraced {solves[0]['solve_s']:.3f} s")
        print("  ffield records counts and its outermost-call time only; every other layer records per-call spans")
    if not args.trace:
        times = sorted(r["solve_s"] for r in solves)
        print(f"  {len(solves)} solves: wall time median {wl.median(times):.3f} s, fastest {times[0]:.3f} s, slowest {times[-1]:.3f} s")
    print(f"values attempted {attempted}  failed {failed}  failed share {failed / attempted:.4f}")
    for f in failures:
        print(f"  failure {f['instance']}: {f['error']} at {f['stage']} ({f['values']} values): {f['message']}")
    for name, (ok, detail) in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail}")

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(
            {
                "workload": args.workload,
                "facts": facts,
                "metrics": metrics,
                "checks": checks,
                "failures": failures,
                "solves": [{k: v for k, v in r.items() if k != "trace"} for r in runs],
                "trace": traced["trace"] if traced else None,
            },
            f,
            indent=1,
        )
    print(f"details written to {os.path.relpath(path, ROOT)}")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
