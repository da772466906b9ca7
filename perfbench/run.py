"""starklat benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.

Every sample is a fresh interpreter (perfbench/child.py) that imports
starklat, loads the workload's config and runs `starklat.cli.run` on it, so
each sample pays the import cost a CLI user pays. Samples run one after
another from this one process (a closed loop with one client), and each
sample's outputs are checked against perfbench/references.json.

The metric names and units are those listed in BENCHMARK.json.

--trace 0: samples until S seconds have passed and at least MIN_SAMPLES
full samples are taken, with set-up-only samples before and between them so
that each run has SETUP_SAMPLES set-up times. Prints the medians of wall_s
(config loaded to manifest written), setup_s (cold import plus
cli.load_config) and peak_rss_mb (the sample process's ru_maxrss).

--trace 1: one untraced sample, one traced sample, and one traced sample with
a single BLAS thread. Prints the per-layer metrics of the traced sample; the
tracing overhead and the single-thread run go to the report only.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full report, with the environment and every
sample, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
SETUP_SAMPLES = 16
MIN_SAMPLES = 2  # full samples per run, however long they take
SAMPLE_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SERIAL_LAYERS = (
    "spectra.eigh", "resolvent.resolvent", "resolvent.chain_product",
    "resolvent.operator_norm", "resolvent.compactness_proxy", "dynamics.evolve",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(MANIFEST, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "starklat"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_requested": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_child(cfg_path: str, out_dir: str, threads: int, *flags: str):
    """One sample process; its result dict, or None if it failed to report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, cfg_path, out_dir, *flags],
            capture_output=True, text=True, env=env, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class Session:
    """Samples of one workload and seed, with their correctness verdicts."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload = workload
        self.cfg = wl.make_config(workload, seed)
        self.work_dir = work_dir
        self.cfg_path = os.path.join(work_dir, "config.json")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(dict(self.cfg, output_dir=os.path.join(work_dir, "out")), fh)
        with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
            self.refs = json.load(fh)
        self.samples = []
        self.attempted = self.failed = 0

    def sample(self, *flags: str, threads: int):
        """Run one sample, check it, and return its result (None if it failed)."""
        out = os.path.join(self.work_dir, f"s{len(self.samples)}")
        self.attempted += 1
        res = run_child(self.cfg_path, out, threads, *flags)
        if res is None:
            errors = ["sample process failed"]
        elif "--setup-only" in flags:
            errors = []
        elif res["rc"] != 0:
            errors = [f"cli exit code {res['rc']}"]
        else:
            errors = wl.check(self.workload, self.cfg, out, self.refs)
        shutil.rmtree(out, ignore_errors=True)
        self.samples.append({"flags": list(flags), "threads": threads, "errors": errors,
                             **{k: v for k, v in (res or {}).items() if k != "spans"}})
        if errors:
            self.failed += 1
            print(f"FAIL {self.workload}: {'; '.join(errors[:5])}", file=sys.stderr)
            return None
        return res


def tail_percentile(values: list):
    """(p, value) for the highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return math.floor(100 * k / n), sorted(values)[k - 1]


def measure(session: Session, seconds: float, threads: int) -> dict:
    setup, wall, rss = [], [], []
    n_setup = n_full = 0  # set-up times and full samples taken or attempted
    lead = seconds / 4
    start = time.perf_counter()
    elapsed = 0.0
    while True:
        # set-up-only samples keep pace with the clock, starting a quarter of
        # the way ahead of it, so that set-up times spread over the whole run,
        # its start included, and number SETUP_SAMPLES at its end
        while n_setup < SETUP_SAMPLES * min(1.0, (elapsed + lead) / (seconds + lead)):
            n_setup += 1
            res = session.sample("--setup-only", threads=threads)
            if res:
                setup.append(res["setup_s"])
        if elapsed >= seconds and n_full >= MIN_SAMPLES:
            break
        res = session.sample(threads=threads)
        n_setup += 1
        n_full += 1
        if res:
            setup.append(res["setup_s"])
            wall.append(res["wall_s"])
            rss.append(res["peak_rss_kb"] / 1024.0)
        elapsed = time.perf_counter() - start
    if not wall:
        return {}
    tail = tail_percentile(wall)
    print(
        f"{session.workload}: wall_s median {statistics.median(wall):.4f} s over "
        f"{len(wall)} samples"
        + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ", too few samples for a tail percentile")
        + f"; setup_s median {statistics.median(setup):.4f} s over {len(setup)}"
        + f"; peak_rss_mb median {statistics.median(rss):.1f} MB"
    )
    return {
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def layer_metrics(res: dict, names) -> dict:
    """Per-layer metrics of a traced sample: `<module>.<function>.self_s|.s|.calls`
    from its spans, the rest from the tracer's computed counts."""
    times = tracing.layer_times(res["spans"])
    counts = dict(res["counts"], **{"cli.output_bytes": res["output_bytes"]})
    out = {}
    for name in names:
        fn, _, field = name.rpartition(".")
        if field in ("self_s", "s", "calls"):
            out[name] = times.get(fn, {}).get(field, 0)
        else:
            out[name] = counts[name]
    return out


def module_self_times(spans: list) -> dict:
    totals = {}
    for name, row in tracing.layer_times(spans).items():
        module = name.split(".", 1)[0]
        totals[module] = totals.get(module, 0.0) + row["self_s"]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def trace(session: Session, threads: int, report: dict, units: dict) -> dict:
    plain = session.sample(threads=threads)
    traced = session.sample("--trace", threads=threads)
    serial = session.sample("--trace", threads=1)
    if not (plain and traced and serial):
        return {}
    metrics = layer_metrics(traced, units)
    by_module = module_self_times(traced["spans"])
    serial_times = tracing.layer_times(serial["spans"])
    traced_times = tracing.layer_times(traced["spans"])
    report["trace"] = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "overhead_s": traced["wall_s"] - plain["wall_s"],
        "spans": len(traced["spans"]),
        "module_self_s": by_module,
        "layers": traced_times,
        "spans_detail": traced["spans"],
        "single_thread": {
            "wall_s": serial["wall_s"],
            "layers": serial_times,
        },
        "computed_counts_note": "dynamics.matvec_bytes and resolvent.matmuls are "
        "computed from array sizes and argument shapes, not measured",
    }
    print(f"{session.workload}: traced wall {traced['wall_s']:.4f} s, untraced "
          f"{plain['wall_s']:.4f} s, tracing overhead {traced['wall_s'] - plain['wall_s']:+.4f} s "
          f"over {len(traced['spans'])} spans")
    print("self time by module: " + ", ".join(f"{m} {s:.3f} s" for m, s in by_module.items()))
    print(f"single BLAS thread: wall {serial['wall_s']:.4f} s; " + ", ".join(
        f"{name} {serial_times[name]['self_s']:.3f} s (vs {traced_times[name]['self_s']:.3f} s)"
        for name in SERIAL_LAYERS if name in serial_times and name in traced_times
    ))
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "starklat", "cli.py")):
        print(f"starklat sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = nproc()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    env = report["environment"]
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, {env['blas']['name']} "
          f"{env['blas']['version']} with {threads} threads, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']}")
    work_dir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        session = Session(args.workload, args.seed, work_dir)
        print(f"{args.workload} inputs: {json.dumps(session.cfg)}")
        if args.trace:
            units = metric_units("per_layer")
            metrics = trace(session, threads, report, units)
        else:
            units = metric_units("end_to_end")
            metrics = measure(session, args.seconds, threads)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report.update(samples=session.samples, attempted=session.attempted, failed=session.failed)
    print(f"{args.workload}: fail_ratio {session.failed}/{session.attempted} = "
          f"{session.failed / session.attempted:.3f}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(
        HERE, "results", f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if not metrics:
        print("no sample succeeded; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0 if session.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
