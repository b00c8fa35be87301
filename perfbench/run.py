"""hslbound benchmark: one command per workload, metrics on the last line.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 40 --trace 0

Runs passes of the workload one after another, each in a fresh
interpreter (perfbench/worker.py), while the next pass would end within
--seconds, and at least one pass (one untraced/traced pair with
--trace 1).  Every pass checks its outputs.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced passes (--trace 1).  The lines before it give the run's
environment and a readable summary.  Exit code 0 when every output was
correct, 1 when some check failed, 2 when the checkout is unusable.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("analyze-ladder", "window-sweep", "random-geometry")
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 170

# the operation a workload times, for the readable summary
OPERATION = {
    "analyze-ladder": "analyze call",
    "window-sweep": "empirical_hsl sweep",
    "random-geometry": "semigroup geometry",
}


def environment(seed: int) -> dict:
    src = ROOT / "src" / "hslbound"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_child(workload, seed, tag, pass_index=0, trace=0, setup_only=False):
    """One worker process; returns (parsed result, None) or (None, error)."""
    # -B: write no bytecode, so nothing lands outside the checkout and
    # every set-up compiles the library alike
    cmd = [
        sys.executable, "-B", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(OUT),
        "--tag", tag, "--pass-index", str(pass_index), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pass {tag} timed out"
    finally:  # also on timeout or interrupt: leave no worker behind
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return None, f"pass {tag} exited {proc.returncode}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"pass {tag} printed no result"


def quantile_90(values):
    # inclusive: interpolates between order statistics and never leaves
    # their range, which matters with five or nine operations
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hslbound" / "__init__.py").is_file() or not (
        ROOT / "demos" / "inputs"
    ).is_dir():
        print(f"error: {ROOT} is not an hslbound checkout (src/hslbound, demos/inputs)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("# environment " + json.dumps(env, sort_keys=True))

    deadline = time.monotonic() + args.seconds
    name = f"{args.workload}-seed{args.seed}"
    passes = []  # (parsed result, traced)
    errors = []
    setups = []
    index = 0
    # a unit is one pass, or an untraced/traced pair in a traced run
    unit = (0, 1) if args.trace else (0,)
    units = 0
    while True:
        unit_start = time.monotonic()
        for traced in unit:
            res, err = run_child(args.workload, args.seed, f"{name}-pass{index}",
                                 pass_index=units, trace=traced)
            index += 1
            if err is not None:
                errors.append(err)
                continue
            setups.append(res["setup_s"])
            passes.append((res, traced))
        units += 1
        took = time.monotonic() - unit_start
        if errors or time.monotonic() + took > deadline:
            break
    while not args.trace and not errors and len(setups) < MIN_SETUPS:
        res, err = run_child(args.workload, args.seed, f"{name}-setup{len(setups)}",
                             setup_only=True)
        if err is not None:
            errors.append(err)
        else:
            setups.append(res["setup_s"])

    # correctness: every check in every pass, and equal outputs across passes
    failures = [f"{op}: {why}" for res, _ in passes for op, why in res["failures"]]
    failed_ops = {(i, op) for i, (res, _) in enumerate(passes) for op, _ in res["failures"]}
    first_digest = {}
    for i, (res, _) in enumerate(passes):
        for op, _, _, digest in res["ops"]:
            if first_digest.setdefault(op, digest) != digest:
                failures.append(f"{op}: output differs between passes")
                failed_ops.add((i, op))
    # a pass that crashed counts as failing every operation of a pass
    per_pass = max((res["attempted"] for res, _ in passes), default=1)
    attempted = sum(res["attempted"] for res, _ in passes) + per_pass * len(errors)
    failed = len(failed_ops) + per_pass * len(errors)
    correct = not failures and not errors

    plain = [res for res, traced in passes if not traced]
    traced_passes = [res for res, traced in passes if traced]
    metrics = {}
    summary = []
    if not plain or (args.trace and not traced_passes) or not any(res["ops"] for res in plain):
        correct = False  # nothing was timed: no metrics
    elif args.trace:
        metrics = layer_metrics(plain, traced_passes)
    else:
        metrics, summary = end_to_end(args.workload, plain, setups, failed / attempted)

    record = OUT / "runs" / f"{name}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({
        "environment": env, "errors": errors, "failures": failures, "setups": setups,
        "passes": [dict(res, traced=bool(traced)) for res, traced in passes],
        "metrics": metrics,
    }))
    for line in summary:
        print(line)
    for err in errors + failures:
        print(f"# FAILED {err}")
    print(f"# {len(passes)} passes, {len(setups)} set-ups, {attempted} operations, "
          f"{failed} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def per_op_median_s(passes):
    """Each operation's median time across passes."""
    times = {}
    for res in passes:
        for op, dt, _, _ in res["ops"]:
            times.setdefault(op, []).append(dt)
    return {op: statistics.median(ts) for op, ts in times.items()}


def end_to_end(workload, passes, setups, failed_frac):
    op_s = per_op_median_s(passes)
    op_ms = sorted(v * 1e3 for v in op_s.values())
    pass_s = statistics.median(sum(op[1] for op in res["ops"]) for res in passes)
    wall_s = statistics.median(sum(op[2] for op in res["ops"]) for res in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "call_ms.p50": statistics.median(op_ms),
        "call_ms.p90": quantile_90(op_ms),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in passes),
    }
    summary = [f"# {k:<20} {v:.6g} {unit_of(k)}" for k, v in metrics.items()]
    summary.append(f"# {'failed_frac':<20} {failed_frac:.6g} fraction")
    summary.append(f"# {'wall pass':<20} {wall_s:.6g} s (uncorrected, for reference)")
    summary.append(f"# per-call metrics over {len(op_ms)} calls ({OPERATION[workload]}), "
                   f"each the median of {len(passes)} passes")
    if workload == "analyze-ladder":
        summary.append(f"# {'analyze_s':<20} {pass_s:.6g} s")
    elif workload == "window-sweep":
        degrees = passes[0]["degrees"]
        summary.append(f"# {'sweep_degrees_per_s':<20} {degrees / pass_s:.6g} 1/s")
    else:
        summary.append(f"# {'geometry_per_s':<20} {len(op_ms) / pass_s:.6g} 1/s")
        summary.append(f"# {'geometry_ms.p50':<20} {metrics['call_ms.p50']:.6g} ms")
        summary.append(f"# {'geometry_ms.p90':<20} {metrics['call_ms.p90']:.6g} ms")
    return metrics, summary


def layer_metrics(plain, traced):
    """Counts from the first traced pass (they repeat exactly); times are
    medians over traced passes; overhead is traced minus untraced wall."""
    first = traced[0]["layers"]
    metrics = {}
    for key, value in first.items():
        if key.endswith("_s"):
            metrics[key] = statistics.median(res["layers"][key] for res in traced)
        else:
            metrics[key] = value
    metrics["bench.trace_overhead_s"] = (
        statistics.median(res["wall_s"] for res in traced)
        - statistics.median(res["wall_s"] for res in plain)
    )
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "_ms." in name:
        return "ms"
    if name.endswith((".certificates_built", ".per_degree")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
