"""One benchmark repeat, in a fresh interpreter.

    python3 perfbench/child.py JOB.json SPAWNED

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start-up.  The job file names
the configs, their output directories, whether to trace, whether to record
the machine, and where to write the result.  Every config runs through
``youngbsde.cli.main``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def machine() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(job_path: Path, spawned: float) -> int:
    job = json.loads(job_path.read_text())
    import youngbsde.cli as cli

    json.loads(Path(job["configs"][0]).read_text())
    setup_s = time.monotonic() - spawned

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    codes = [cli.main(["run", cfg, "--out", out]) for cfg, out in zip(job["configs"], job["outs"])]
    run_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.dump(Path(job["trace_out"]), run_s)
    out_bytes = sum(f.stat().st_size for out in job["outs"] for f in Path(out).iterdir())
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "out_bytes": out_bytes,
        "exit_codes": codes,
    }
    if job["machine"]:
        result["machine"] = machine()
    Path(job["result"]).write_text(json.dumps(result))
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(run(Path(sys.argv[1]), float(sys.argv[2])))
