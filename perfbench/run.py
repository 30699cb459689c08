"""lassokit benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload gauss_large --seed 1 --seconds 30 --trace 0

With --trace 0 the last line holds every end-to-end metric; with --trace 1
it holds every per-layer metric of traced twins of the solves, and the
spans are written to .perfbench_out/.  Earlier lines record the environment, sample
counts and every solve that missed.  `--workload all` runs the four
workloads one after another.  BLAS is pinned to one thread for this
process only; nothing else about the machine is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD read from .git without running git; 'unavailable' outside a clone."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def l3_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return int(out) if out.isdigit() and int(out) > 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def environment(workload, seed: int, instances, blas_env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    matrix = sum(inst.a.nbytes for inst in instances)
    l3 = l3_bytes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars_inherited": blas_env,
        "blas_thread_vars_used": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "workload": workload.name,
        "matrix_bytes": matrix,
        "largest_matrix_bytes": max(inst.a.nbytes for inst in instances),
        "l3_bytes": l3,
        "matrices_over_l3": matrix / l3 if l3 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # Pin BLAS before numpy loads it: the baseline is single-threaded.
    blas_env = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    for v in BLAS_THREAD_VARS:
        os.environ[v] = "1"
    src = ROOT / "src"
    if not (src / "lassokit" / "__init__.py").is_file():
        print(f"lassokit sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(harness.WORKLOADS):
        ap.error(f"unknown workload {args.workload!r}; choose from all, "
                 f"{', '.join(harness.WORKLOADS)}")
    log = lambda line: print(line, flush=True)  # noqa: E731
    results = {}
    for name in names:
        workload = harness.WORKLOADS[name]
        results[name] = harness.run(
            name, args.seed, args.seconds, bool(args.trace),
            out_dir=ROOT / ".perfbench_out", log=log,
            env=lambda instances, w=workload: environment(
                w, args.seed, instances, blas_env))
        for metric, m in results[name]["metrics"].items():
            log(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        result = results[names[0]]
    else:  # --workload all: one line, metrics keyed <workload>.<metric>
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
