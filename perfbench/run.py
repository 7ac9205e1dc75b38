"""xxxchain benchmark: one workload, fresh-interpreter parts, checked outputs.

    python3 perfbench/run.py --workload solver --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from ./src.  A
workload is two parts (WORKLOADS below) and one pass runs each part once.
Every part runs in its own interpreter (`child.py`), started one at a time
with OPENBLAS_NUM_THREADS=1, and the run cycles through the parts while the
next one still fits in --seconds.  With --trace 0 the last line of stdout
carries the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries
the per-layer metrics of traced children, interleaved with untraced ones so
that the tracing overhead can be reported.  End-to-end times are scaled to a
fixed host speed, measured by a reference computation between operations
(`speed`), because the host's own speed drifts.  Lines above it give every metric
with its unit and sample count, and the run record (versions, seed, BLAS
threads, source line count).  The record and the traced spans are also
written under .perfbench/.  Exits 1 if any output fails its check, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
# each workload is a pair of parts from workloads.PARTS; one pass runs each
# part once, in its own fresh interpreter
WORKLOADS = {
    "solver": ("solve_grid", "reconcile"),
    "states": ("wide_sector", "verify"),
}
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 120
# about the time of child.reference_s() on the 2-core VM where the benchmark
# was defined; end-to-end times are seconds on a host that runs it in exactly
# this time (see speed), and the raw times go to the record
REFERENCE_S = 0.025


class ChildError(RuntimeError):
    pass


def run_child(root: Path, env: dict, args: list) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    ended = time.perf_counter()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawned
    out["child_s"] = ended - spawned
    return out


def source_record(root: Path) -> dict:
    files = sorted((root / "src" / "xxxchain").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (root / ".git").exists():  # the benchmark's own checkout may not be a git tree
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest(), "src_py_lines": lines}


def speed(children: list) -> float:
    """How much faster than REFERENCE_S the host ran the reference computation
    taken between the operations of `children`, on average.  The host's speed
    drifts by up to 1.7x within minutes, for all work alike; multiplying the
    times of a run by this factor removes most of that drift."""
    return REFERENCE_S / statistics.fmean(t for c in children for t in c["reference_s"])


def pass_time(runs: dict) -> float:
    """Time of one pass: the sum over the parts of each part's mean time.
    With a few children per part and run, the mean varies less from run to
    run than the median."""
    return sum(statistics.fmean(c["wall_s"] for c in children) for children in runs.values())


def end_to_end(runs: dict, started: list) -> dict:
    """Metric -> (value, sample count); `runs` maps each part to its untraced
    children, and one pass of the workload is one of each part."""
    passes = min(len(children) for children in runs.values())
    wall = pass_time(runs) * speed(sum(runs.values(), []))
    certified = sum(statistics.median_low(c["tally"]["certified"] for c in children)
                    for children in runs.values())
    return {
        "setup_s": (statistics.median(c["setup_s"] * speed([c]) for c in started), len(started)),
        "wall_s": (wall, passes),
        "certified": (certified, passes),
        "certified_per_s": (certified / wall, passes),
        "peak_rss_mb": (max(statistics.median(c["rss_mb"] for c in children)
                            for children in runs.values()), passes),
    }


def per_layer(runs: dict, traced: dict) -> dict:
    """Per-layer metrics of one pass: each part's median over its traced
    children, summed over the parts."""
    passes = min(len(children) for children in traced.values())
    out = {}
    for children in traced.values():
        for name in children[0]["layers"]:
            value = statistics.median(c["layers"][name] for c in children)
            out[name] = out.get(name, 0) + value
    runs_ = out["solver.newton_runs"]
    out["solver.yield"] = out["solver.certified"] / runs_ if runs_ else 0.0
    out["trace.overhead_s"] = (pass_time(traced) * speed(sum(traced.values(), []))
                               - pass_time(runs) * speed(sum(runs.values(), [])))
    return {name: (value, passes) for name, value in out.items()}


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = root / "src"
    if not (src / "xxxchain" / "__init__.py").is_file():
        print(f"error: no xxxchain sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    outdir = root / ".perfbench"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # bytecode is compiled once per install, not per command: keep it out of setup_s
    compileall.compile_dir(str(src / "xxxchain"), quiet=1)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src), PYTHONHASHSEED="0")

    parts = WORKLOADS[args.workload]
    schedule = [(part, traced) for part in parts for traced in ((False, True)[:1 + args.trace])]
    done = {key: [] for key in schedule}
    started = []
    start = time.perf_counter()
    try:
        for i in itertools.count():
            part, traced = schedule[i % len(schedule)]
            child_args = ["--part", part, "--seed", str(args.seed)]
            if traced:
                spans = outdir / f"spans-{tag}-{part}-{len(done[part, True])}.json"
                child_args += ["--trace", "--spans", str(spans)]
            started.append(run_child(root, env, child_args))
            done[part, traced].append(started[-1])
            if i + 1 < len(schedule):
                continue  # every part, traced and untraced, at least once
            upcoming = max(c["child_s"] for c in done[schedule[(i + 1) % len(schedule)]])
            top_up = max(0, SETUP_SAMPLES - len(started)) * min(c["setup_s"] for c in started)
            if time.perf_counter() - start + upcoming + top_up > args.seconds:
                break
        while len(started) < SETUP_SAMPLES:
            started.append(run_child(root, env, []))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    children = [c for c in started if "ops" in c]
    foreign = {c["package"] for c in started if not Path(c["package"]).is_relative_to(src)}
    if foreign:
        print(f"error: xxxchain was imported from {foreign}, not from {src}", file=sys.stderr)
        return 1
    ops = [op for c in children for op in c["ops"]]
    failures = [op["error"] for op in ops if op["error"]]
    runs = {part: done[part, False] for part in parts}
    setups = [c["setup_s"] for c in started]
    if args.trace:
        metrics = per_layer(runs, {part: done[part, True] for part in parts})
    else:
        metrics = end_to_end(runs, started)
    tally = Counter()
    for part in parts:
        tally.update(done[part, False][0]["tally"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_record(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **children[0]["versions"],
        "openblas_num_threads": env["OPENBLAS_NUM_THREADS"],
        "parts": list(parts),
        "children": {f"{part}{' traced' if traced else ''}": len(done[part, traced])
                     for part, traced in schedule},
        "attempted": len(ops),
        "failed": len(failures),
        "fail_rate": len(failures) / len(ops),
        "tally": dict(tally),
        "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                    for name, (value, n) in metrics.items()},
        "reference_s": REFERENCE_S,
        "speed": speed(sum(runs.values(), [])),
        "raw_wall_s": pass_time(runs),
        "raw_setup_s": statistics.median(setups),
        "setups": [{"setup_s": c["setup_s"], "speed": speed([c])} for c in started],
        "children_detail": [{"part": c["part"], "traced": "layers" in c, "wall_s": c["wall_s"],
                             "reference_s": c["reference_s"],
                             "rss_mb": c["rss_mb"], "spans": c.get("spans"),
                             "ops": [[op["label"], op["s"]] for op in c["ops"]]}
                            for c in children],
    }
    (outdir / f"record-{tag}.json").write_text(json.dumps(record, indent=1))

    for name, (value, n) in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]:8s} n={n}")
    print(f"{'fail_rate':34s} {record['fail_rate']:14.6g} {'ratio':8s} n={len(ops)}")
    print(f"host speed {record['speed']:.4g} x reference; raw wall_s {record['raw_wall_s']:.6g} s, "
          f"raw setup_s {record['raw_setup_s']:.6g} s")
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, n) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
