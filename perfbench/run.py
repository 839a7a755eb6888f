"""compfrac benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload pulse_reproduce --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--workload`` takes one name, a comma
list or ``all``.  Every repetition runs in a fresh interpreter (see
child.py), so the cold caches a CLI user pays for are paid every time.
The workloads have no random inputs: ``--seed`` only shuffles the order
of workloads and of the repetitions and set-up probes inside each.

Repetitions repeat until their summed time reaches ``--seconds`` (at
least one, two for the pulse); set-up time is the median of at least
three fresh-interpreter samples.  ``--trace 1`` adds one traced
repetition and reports the per-layer metrics instead of the end-to-end
ones.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import SCENARIOS, ops_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = (*SCENARIOS, "deep_series")
SETUP_SAMPLES = 3
# The pulse's solve spreads most between runs, so it always takes two
# repetitions; one each keeps 70 runs of the three workloads within an hour.
MIN_REPS = {"pulse_reproduce": 2}
DEADLINE_S = 170.0


def machine() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def spawn(workload: str, mode: str, work: Path, timeout: float) -> dict:
    """One child interpreter; a crash or timeout counts as failed operations."""
    shutil.rmtree(work, ignore_errors=True)  # left behind if an earlier run was killed
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", mode, "--work", str(work)]
    ops = ops_of(workload)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "ops": ops, "failed": ops, "failures": [f"{mode} timed out"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"mode": mode, "ops": ops, "failed": ops, "failures": [f"{mode} exited {proc.returncode}", *tail]}
    result["mode"] = mode
    return result


def measure(workload: str, seconds: float, trace: bool, rng: random.Random, work: Path) -> list:
    """All children of one workload, in seeded order, until the time is used."""
    deadline = time.perf_counter() + DEADLINE_S
    reps = MIN_REPS.get(workload, 1)
    schedule = ["rep"] * reps + ["setup"] * max(SETUP_SAMPLES - reps, 0) + (["traced"] if trace else [])
    rng.shuffle(schedule)
    children: list = []
    rep_times: list = []
    while True:
        if schedule:
            mode = schedule.pop()
        elif sum(rep_times) < seconds and time.perf_counter() + max(rep_times) < deadline:
            mode = "rep"
        else:
            return children
        child_dir = work / f"{workload}-{len(children)}"
        start = time.perf_counter()
        result = spawn(workload, mode, child_dir, max(1.0, deadline - start))
        if mode == "rep":
            rep_times.append(time.perf_counter() - start)
        if mode == "traced" and (child_dir / "spans.json").is_file():
            shutil.move(child_dir / "spans.json", work / f"spans_{workload}.json")
        shutil.rmtree(child_dir, ignore_errors=True)
        children.append(result)


def summarize(workload: str, children: list) -> dict:
    """End-to-end metrics, per-layer metrics and counts for one workload."""
    runs = [c for c in children if c["mode"] == "rep" and "wall_s" in c]
    measured = [c for c in children if c["mode"] != "setup"]
    errs = [c.get("max_rel_dev", c.get("theta_gap")) for c in runs]
    e2e = {
        "wall_s": statistics.median(c["wall_s"] for c in runs) if runs else None,
        "setup_s": statistics.median(c["setup_s"] for c in children if "setup_s" in c),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in runs) if runs else None,
        "theta_rel_err": 100 * statistics.median(errs) if None not in errs and errs else None,
    }
    layer = {}
    traced = [c for c in children if c["mode"] == "traced" and "trace" in c]
    if traced:
        t = traced[0]
        layer = dict(t["trace"])
        layer["cli.files_written"] = t.get("files_written", 0)
        layer["cli.bytes_written"] = t.get("bytes_written", 0)
        layer["traced_wall_s"] = t["wall_s"]
        if e2e["wall_s"] is not None:
            layer["trace_overhead_s"] = t["wall_s"] - e2e["wall_s"]
        layer["trace_unaccounted_s"] = t["wall_s"] - sum(t["self_times"].values())
    return {
        "e2e": e2e,
        "layer": layer,
        "attempted": sum(c["ops"] for c in measured),
        "failed": sum(c["failed"] for c in measured),
        "failures": [f for c in measured for f in c.get("failures", [])],
        "reps": len(runs),
        "setup_samples": sum(1 for c in children if "setup_s" in c),
        "max_rel_dev": runs[0].get("max_rel_dev") if runs else None,
        "theta_gap": runs[0].get("theta_gap") if runs else None,
        "data_identical": all(c.get("data_identical", True) for c in measured),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="name, comma list, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "compfrac" / "__init__.py").is_file():
        print(f"no compfrac sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    rng = random.Random(args.seed)
    rng.shuffle(names)
    print(json.dumps({"seed": args.seed, "order": names, "machine": machine()}))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        s = summarize(name, measure(name, args.seconds, bool(args.trace), rng, work))
        attempted += s["attempted"]
        failed += s["failed"]
        values = s["layer"] if args.trace else s["e2e"]
        print(f"== {name}: {s['reps']} repetition(s), {s['setup_samples']} set-up sample(s),"
              f" ops {s['attempted']} attempted / {s['failed']} failed,"
              f" data_identical={s['data_identical']}")
        for key in ("max_rel_dev", "theta_gap"):
            if s[key] is not None:
                print(f"   {key:<28} {100 * s[key]:.6g} %")
        for m in wanted:
            value = values.get(m["name"])
            print(f"   {m['name']:<28} {value!r} {m['unit']}")
            if value is not None:
                key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
                metrics[key] = {"value": value, "unit": m["unit"]}
        for failure in s["failures"]:
            print(f"   FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
