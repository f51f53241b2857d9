"""dimerbath benchmark runner.

Run from the root of a dimerbath checkout:

    python3 bench/run.py --workload pair_2mode --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

A run repeats workload passes, each in a fresh child process and one at a
time, until the next pass would end after ``--seconds``. The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics (medians over the passes), with ``--trace 1`` the per-layer metrics
of the traced passes, which alternate with untraced ones so the tracing
overhead is measured in the same run. A full record with run metadata is
written to ``.bench_out/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_METRICS = {"cli.csv_rows": "count", "trace.wall_s": "s", "trace.overhead_s": "s"}
#: set-up samples per run; passes give one each, set-up-only children the rest
SETUP_SAMPLES = 7
#: every run ends within this many seconds, whatever --seconds asks for
RUN_LIMIT_S = 170.0
OUT_DIR = ".bench_out"
#: every child runs with one BLAS thread: on a shared host a second thread is
#: often descheduled and the first waits for it; in 30-second runs of
#: ``configs`` pass times varied by 21 % at two threads and 3.5 % at one
BLAS_ENV = {name: "1" for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def layer_units() -> dict[str, str]:
    units = {m: ("s" if m.endswith("_s") else
                 "ratio" if m.endswith("_ratio") else "count") for m in LAYER_METRICS}
    return {**units, **TRACE_METRICS}


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dimerbath").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(root: Path, out: Path, workload: str, seed: int, scale: str,
              timeout: float, traced=False, setup_only=False, spans=None,
              write_reference=False) -> dict:
    """One pass in a fresh interpreter; a crash or kill becomes a failed pass."""
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=out)
    os.close(fd)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--result", result_path]
    cmd += ["--trace"] if traced else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--spans", str(spans)] if spans else []
    cmd += ["--write-reference"] if write_reference else []
    start = time.monotonic()
    with open(out / "worker.log", "a") as log:
        proc = subprocess.Popen(cmd + ["--t0", repr(start)], cwd=root,
                                env={**os.environ, **BLAS_ENV}, stdout=log, stderr=log)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    code = proc.returncode
    elapsed = time.monotonic() - start
    try:
        with open(result_path) as fh:
            result = json.load(fh) if code == 0 else None
    except (OSError, ValueError):
        result = None
    finally:
        os.unlink(result_path)
    if result is None:
        return {"ok": False, "error": f"worker exit code {code}", "elapsed": elapsed,
                "traced": traced}
    return {"ok": True, "elapsed": elapsed, "traced": traced, **result}


def run_workload(root: Path, out: Path, name: str, seed: int, seconds: float,
                 trace: bool, scale: str) -> dict:
    """Passes until the next one would end after ``seconds``; medians of them."""
    op_names = workloads.WORKLOADS[name].op_names(root, scale)
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        spans = out / f"spans_{name}_seed{seed}_pass{len(passes)}.json" if traced else None
        passes.append(run_child(root, out, name, seed, scale,
                                RUN_LIMIT_S - (time.monotonic() - start),
                                traced=traced, spans=spans))
        elapsed = time.monotonic() - start
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p["elapsed"] for p in passes)
        if elapsed + typical > min(seconds, RUN_LIMIT_S):
            break

    setups = [p["setup_s"] for p in passes if p["ok"] and not p["traced"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        probe = run_child(root, out, name, seed, scale, 60.0, setup_only=True)
        if not probe["ok"]:
            break
        setups.append(probe["setup_s"])

    attempted = failed = 0
    problems = []
    for p in passes:
        attempted += len(op_names)
        if not p["ok"]:
            failed += len(op_names)
            problems.append(p["error"])
            continue
        for op in p["ops"]:
            if op["problems"]:
                failed += 1
                problems += [f"{op['name']}: {msg}" for msg in op["problems"]]

    good = [p for p in passes if p["ok"]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics = {}
    if trace and plain and traced:
        units = layer_units()
        for metric in LAYER_METRICS:
            metrics[metric] = statistics.median(p["layers"][metric] for p in traced)
        metrics["cli.csv_rows"] = statistics.median(p["layers"]["cli.csv_rows"]
                                                    for p in traced)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(
            p["wall_s"] for p in plain)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    elif not trace and plain and setups:
        for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[metric] = statistics.median(p[metric] for p in plain)
        metrics["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    return {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "seconds": seconds, "run_elapsed_s": time.monotonic() - start,
        "correct": failed == 0 and bool(metrics), "attempted": attempted,
        "failed": failed, "metrics": metrics, "problems": problems[:20],
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "setup_samples": setups,
        "metadata": {
            "git_commit": git_commit(root), "source_sha256": source_digest(root),
            "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "blas_env": BLAS_ENV,
            **(good[0]["metadata"] if good else {})},
    }


def summary(record: dict) -> list[str]:
    n_plain = sum(1 for p in record["passes"] if p["ok"] and not p["traced"])
    n_traced = sum(1 for p in record["passes"] if p["ok"] and p["traced"])
    lines = [f"{record['workload']}: seed {record['seed']}, {record['scale']} scale, "
             f"{n_plain} untraced + {n_traced} traced passes, "
             f"{record['attempted']} ops, {record['failed']} failed"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if not record["trace"]:
        frac = record["failed"] / record["attempted"]
        lines.append(f"  {'fail_frac':34s} {frac:14.6g} ratio "
                     f"({record['failed']}/{record['attempted']})")
    lines += [f"  problem: {p.splitlines()[-1] if p else p}" for p in record["problems"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="'tiny' runs every workload shape in about a second")
    ap.add_argument("--write-reference", action="store_true",
                    help="store one seed-0 full-scale pass of each workload as "
                         "the reference outputs in bench/reference/")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "dimerbath" / "__init__.py").is_file() \
            or not (root / "configs").is_dir():
        print("bench: no dimerbath checkout here (need src/dimerbath and configs/); "
              "run from the repository root", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    if args.write_reference:
        for name in names:
            p = run_child(root, out, name, 0, "full", RUN_LIMIT_S, write_reference=True)
            bad = [op for op in p.get("ops", []) if op["problems"]]
            print(f"{name}: reference {'not written' if bad or not p['ok'] else 'written'}")
            if bad or not p["ok"]:
                return 1
        return 0

    records = []
    for name in names:
        record = run_workload(root, out, name, args.seed, args.seconds,
                              bool(args.trace), args.scale)
        path = out / f"result_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        print("\n".join(summary(record)), flush=True)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if all(r["metrics"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
