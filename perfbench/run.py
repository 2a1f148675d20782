"""youngbsde benchmark: experiment configs through the CLI, one fresh
interpreter per repeat.

    python3 perfbench/run.py [--workload lsmc|crosscheck|fd2d|young|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--save FILE]
    python3 perfbench/run.py --workload W --seed N --record

Each repeat starts ``perfbench/child.py``, which imports ``youngbsde.cli``
from ``src/`` and calls ``youngbsde.cli.main(["run", cfg, "--out", dir])``
for each of the workload's configs.  Repeats run one after another until
``--seconds`` have passed (and at least a minimum count have run); every
metric is the median over the repeats.  With ``--trace 1`` the repeats
alternate between untraced and traced children and the per-layer metrics
are printed instead of the end-to-end ones.  Every repeat's outputs are
checked; any failed check makes the command exit 1.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  ``--record`` runs one repeat and stores its
results.csv as the reference for that workload and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import AccountingError, layer_metrics
from workloads import WORKLOADS, Output, Workload, read_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = BENCH / "reference"

# One BLAS thread: at two OpenBLAS threads the Cholesky factors inside
# fbs_generate intermittently take 30x longer, which swamps the timings.
# The variables must be set before the child interpreter loads numpy.
BLAS_THREADS = 1
MIN_REPEATS = 3  # untraced repeats per run; a traced run needs 2 of each kind
RUN_LIMIT_S = 170.0  # a workload's measurement starts no repeat that would end past this
DRIFT_BOUND = 1e-6  # largest accepted result_drift against the stored reference

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Repeat:
    traced: bool
    errors: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)  # end-to-end values from the child
    outputs: list[Output] = field(default_factory=list)
    layers: dict | None = None
    drift: float | None = None
    timed_out: bool = False


def result_drift(got: bytes, ref: str) -> float:
    """Largest |got - ref| / max(|ref|, 1) over the numbers of two
    results.csv files; inf when their shape or any text field differs."""
    a = list(csv.reader(io.StringIO(got.decode())))
    b = list(csv.reader(io.StringIO(ref)))
    if [len(r) for r in a] != [len(r) for r in b]:
        return math.inf
    worst = 0.0
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return math.inf
            worst = max(worst, abs(fx - fy) / max(abs(fy), 1.0))
    return worst


def _run_child(rep_dir: Path, configs: list[Path], traced: bool, machine: bool,
               timeout: float) -> Repeat:
    rep = Repeat(traced)
    rep_dir.mkdir()
    outs = [rep_dir / f"out{j}" for j in range(len(configs))]
    job = {
        "configs": [str(p) for p in configs],
        "outs": [str(p) for p in outs],
        "trace": traced,
        "machine": machine,
        "trace_out": str(rep_dir / "trace.json"),
        "result": str(rep_dir / "result.json"),
    }
    (rep_dir / "job.json").write_text(json.dumps(job))
    with open(rep_dir / "stdout.txt", "w") as so, open(rep_dir / "stderr.txt", "w") as se:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(rep_dir / "job.json"), repr(spawned)],
                env=_child_env(), cwd=rep_dir, stdout=so, stderr=se, timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            rep.timed_out = True
            rep.errors.append(f"timed out after {timeout:.0f} s")
            return rep
    result_path = Path(job["result"])
    if proc.returncode != 0 or not result_path.is_file():
        tail = (rep_dir / "stderr.txt").read_text().strip().splitlines()[-3:]
        rep.errors.append(f"child exited {proc.returncode}: {' | '.join(tail)}")
        if not result_path.is_file():
            return rep
    rep.values = json.loads(result_path.read_text())
    try:
        rep.outputs = [read_output(o) for o in outs]
    except (OSError, KeyError, UnicodeDecodeError) as exc:
        rep.errors.append(f"unreadable output: {exc}")
        return rep
    if traced:
        try:
            rep.layers = layer_metrics(json.loads(Path(job["trace_out"]).read_text()),
                                       rep.values["out_bytes"])
        except (OSError, AccountingError) as exc:
            rep.errors.append(f"trace: {exc}")
    return rep


def _reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


@dataclass
class Measurement:
    workload: Workload
    seed: int
    repeats: list[Repeat]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.repeats if r.errors)

    def samples(self, name: str, traced: bool = False) -> list[float]:
        return [r.values[name] for r in self.repeats if r.traced == traced and name in r.values]

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        out = {}
        for name, unit in END_TO_END.items():
            vals = self.samples(name)
            if vals:
                out[name] = (statistics.median(vals), unit, len(vals))
        return out

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        traced = [r.layers for r in self.repeats if r.layers is not None]
        out = {}
        if traced:
            for name, (_, unit) in traced[0].items():
                out[name] = (statistics.median(t[name][0] for t in traced), unit, len(traced))
        on, off = self.samples("run_s", traced=True), self.samples("run_s")
        if on and off:
            out["trace.overhead_s"] = (
                statistics.median(on) - statistics.median(off), "s", min(len(on), len(off)))
        return out

    def machine(self) -> dict | None:
        return next((r.values["machine"] for r in self.repeats if "machine" in r.values), None)

    def drift(self) -> float | None:
        drifts = [r.drift for r in self.repeats if r.drift is not None]
        return max(drifts) if drifts else None


def measure(w: Workload, seed: int, seconds: float, trace: bool, min_repeats: int) -> Measurement:
    started = time.monotonic()
    run_dir = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    reference = _reference(w.name).get(str(seed))
    repeats: list[Repeat] = []
    first_csv: list[bytes] | None = None
    try:
        configs = []
        for j, cfg in enumerate(w.configs(seed)):
            configs.append(run_dir / f"config{j}.json")
            configs[-1].write_text(json.dumps(cfg, indent=1))
        longest = 0.0
        while True:
            traced = trace and len(repeats) % 2 == 1
            t0 = time.monotonic()
            rep = _run_child(run_dir / f"rep{len(repeats)}", configs, traced, not repeats,
                             RUN_LIMIT_S - (t0 - started))
            last = time.monotonic() - t0
            longest = max(longest, last)
            repeats.append(rep)
            if rep.outputs:
                rep.errors += w.check(rep.outputs)
                csvs = [o.csv_bytes for o in rep.outputs]
                if first_csv is None:
                    first_csv = csvs
                elif csvs != first_csv:
                    rep.errors.append("results.csv differs from the first repeat of this seed")
                if reference is not None:
                    rep.drift = max(result_drift(c, r) for c, r in zip(csvs, reference))
                    if not rep.drift <= DRIFT_BOUND:
                        rep.errors.append(f"result_drift {rep.drift:.3g} > {DRIFT_BOUND:g}")
            n_on = sum(r.traced for r in repeats)
            n_off = len(repeats) - n_on
            enough = min(n_on, n_off) >= 2 if trace else n_off >= min_repeats
            now = time.monotonic()
            # stop where the run comes closest to `seconds`
            if rep.timed_out or (enough and now - started + last / 2 >= seconds):
                break
            if now - started + longest > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return Measurement(w, seed, repeats)


def record(w: Workload, seed: int) -> int:
    m = measure(w, seed, 0.0, False, 1)
    rep = m.repeats[0]
    for err in rep.errors:
        print(f"{w.name} seed {seed}: {err}", file=sys.stderr)
    if rep.errors:
        return 1
    REFERENCE.mkdir(exist_ok=True)
    refs = _reference(w.name)
    refs[str(seed)] = [o.csv_bytes.decode() for o in rep.outputs]
    path = REFERENCE / f"{w.name}.json"
    path.write_text(json.dumps(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))), indent=1) + "\n")
    print(f"recorded {w.name} seed {seed} in {path.relative_to(ROOT)}")
    return 0


def _report(m: Measurement, trace: bool) -> dict[str, tuple[float, str, int]]:
    w = m.workload
    print(f"# {w.name} (seed {m.seed}): {w.why}")
    metrics = m.per_layer() if trace else m.end_to_end()
    for name, (value, unit, n) in metrics.items():
        print(f"#   {name:<28} {value:>14.6g} {unit:<7} median of {n}")
    attempted = len(m.repeats)
    print(f"#   {'error_rate':<28} {m.failed / attempted:>14.6g} {'ratio':<7} "
          f"{m.failed} of {attempted} runs failed")
    drift = m.drift()
    if drift is None:
        print(f"#   {'result_drift':<28} {'n/a':>14} {'rel':<7} no reference stored for seed {m.seed}")
    else:
        print(f"#   {'result_drift':<28} {drift:>14.6g} {'rel':<7} max of {attempted} runs "
              f"against the reference, bound {DRIFT_BOUND:g}")
    for i, rep in enumerate(m.repeats):
        for err in rep.errors:
            print(f"{w.name} seed {m.seed} repeat {i}: {err}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", type=Path, help="also write the full report, samples included, here")
    ap.add_argument("--record", action="store_true",
                    help="store this seed's results.csv as the workload's reference")
    args = ap.parse_args(argv)

    if not (SRC / "youngbsde" / "cli.py").is_file():
        print(f"no youngbsde sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return max(record(WORKLOADS[n], args.seed) for n in names)

    trace = bool(args.trace)
    results, report = {}, {"machine": None, "seed": args.seed, "trace": trace, "workloads": {}}
    attempted = failed = 0
    for name in names:
        m = measure(WORKLOADS[name], args.seed, args.seconds, trace, MIN_REPEATS)
        if report["machine"] is None and m.machine() is not None:
            report["machine"] = m.machine()
            print(f"# machine: {json.dumps(report['machine'])}")
        metrics = _report(m, trace)
        attempted += len(m.repeats)
        failed += m.failed
        prefix = "" if len(names) == 1 else f"{name}."
        results.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()})
        report["workloads"][name] = {
            "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
            "error_rate": m.failed / len(m.repeats),
            "result_drift": m.drift(),
            "repeats": [{"traced": r.traced, "errors": r.errors, **r.values} for r in m.repeats],
        }
    if args.save:
        args.save.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
