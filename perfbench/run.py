"""spikelat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` beside this directory, uninstalled. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it is the environment record,
also written with the span file into ``perfbench/out/``. A failed check
prints the result with ``correct`` false and exits 1; sources that cannot
be found exit 2 without a result.
"""
from __future__ import annotations

import os
import sys

# Thread counts are fixed before numpy loads OpenBLAS: with two BLAS threads
# on two cores, back-to-back runs of the same training differ by a fifth.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SPIKELAT_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def openblas_threads():
    """Thread count OpenBLAS reports in this process, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV},
        "openblas_threads_in_force": openblas_threads(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="spikelat benchmark")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "spikelat" / "__init__.py").is_file():
        print(f"perfbench: no spikelat sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    args = parse_args(argv, sorted(harness.WORKLOADS))
    w = harness.WORKLOADS[args.workload]
    env = environment()
    result = harness.run(w, args.seed, args.seconds, bool(args.trace), OUT)
    OUT.mkdir(parents=True, exist_ok=True)
    env_file = OUT / f"{w.name}-s{args.seed}-t{args.trace}.env.json"
    env_file.write_text(json.dumps(env, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
