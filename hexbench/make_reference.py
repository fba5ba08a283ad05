"""Regenerate ``reference.json``: the analytic outputs of every benchmark point.

    python3 hexbench/make_reference.py

Coverage points store coverage(); rate and Monte-Carlo points store the full
report(), the latter as the analytic side of the ``hexnet validate`` rule.
Each workload's engines use its ``rel_tol``, recorded in the file.
Regenerate only when a change to the package is meant to change its results,
and say so in the change.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    base = workloads.default_config()
    points, rel_tols = {}, {}
    for name, wl in workloads.WORKLOADS.items():
        kind = "rate" if wl.kind == "mc" else wl.kind
        rel_tols[name] = wl.rel_tol
        points[name] = {}
        for p in wl.points:
            t0 = time.perf_counter()
            cells = workloads.analytic_point(kind, p.config(base), NullTracer(),
                                             wl.rel_tol)
            print(f"{name} {p.label}: {time.perf_counter() - t0:.2f}s", flush=True)
            points[name][p.label] = {k: (None if math.isnan(v) else v)
                                     for k, v in cells.items()}
    doc = {"commit": _commit(), "rel_tol": rel_tols, "points": points}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
