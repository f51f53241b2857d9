"""One workload pass in a fresh process; run by run.py, not by hand.

Set-up (imports and input generation) is timed from the parent's clock
reading taken just before this process was started. The pass then times
its ops, reads its own peak RSS and CPU time, checks every output, and
writes one JSON result file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path


def blas_info(np) -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes
    import glob

    info = {"openblas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.monotonic() just before starting this process")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import workloads
    db = workloads.load_modules()
    if not Path(db.cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"dimerbath imported from {db.cli.__file__}, not {root}/src")

    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=Path(args.result).parent))
    try:
        workload = workloads.WORKLOADS[args.workload](
            db, root, args.seed, args.scale, workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(np)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "ops": []}
        if not args.setup_only:
            result.update(run_ops(workload, workload.op_names(root, args.scale)))
            result["metadata"] = {"workload": workload.metadata(),
                                  "numpy": np.__version__,
                                  "python": sys.version.split()[0], **blas_info(np)}
            check_ops(workload, result, args)
            if tracer is not None:
                result["layers"] = tracer.layer_metrics()
                result["layers"]["cli.csv_rows"] = result.pop("csv_rows")
                if args.spans:
                    tracer.write(args.spans)
        result.pop("csv_rows", None)
        result.pop("outputs", None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def run_ops(workload, op_names) -> dict:
    """Time every op; an op that raises is recorded as failed."""
    ops, raw = [], {}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    for op in op_names:
        t = time.perf_counter()
        try:
            raw[op] = workload.run(op)
            ops.append({"name": op, "seconds": time.perf_counter() - t, "problems": []})
        except Exception:
            ops.append({"name": op, "seconds": time.perf_counter() - t,
                        "problems": [traceback.format_exc(limit=3)]})
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    outputs = {op: workload.outputs(op, value) for op, value in raw.items()}
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "ops": ops, "outputs": outputs,
            "csv_rows": sum(workload.csv_rows(out) for out in outputs.values())}


def check_ops(workload, result, args):
    """Add each op's check failures, and at seed 0 its reference differences."""
    import workloads

    outputs = result["outputs"]
    reference = None
    if args.seed == 0 and args.scale == "full" and not args.write_reference:
        reference = workloads.read_reference(args.workload)
    for op in result["ops"]:
        if op["name"] not in outputs:
            continue
        out = outputs[op["name"]]
        op["problems"] += workload.check(op["name"], out)
        if reference is not None:
            op["problems"] += workloads.compare_outputs(
                out, reference.get(op["name"]), op["name"])
    if args.write_reference and not any(op["problems"] for op in result["ops"]):
        workloads.write_reference(args.workload, outputs)


if __name__ == "__main__":
    sys.exit(main())
