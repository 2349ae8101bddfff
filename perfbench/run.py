"""sbgkit benchmark: one workload per process, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload sbg-reproduce --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sbgkit is imported from its src/ directory.
Untraced (--trace 0) prints setup_s, certify_s and peak_rss_mib; traced
(--trace 1) runs the task once untraced and twice traced and prints the
per-layer figures.  The last stdout line is the JSON result; the line before
it gives the environment, the raw samples and the check outcomes.
"""

from __future__ import annotations

import argparse
import os
import sys

# Single-threaded numpy: must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import sbgkit, sbgkit.cli; print(time.perf_counter() - t)"
)


def load_sbgkit():
    """Import sbgkit from this checkout only; exit 2 when it is not there."""
    if not (SRC / "sbgkit" / "__init__.py").is_file():
        print(f"error: no sbgkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sbgkit

    if Path(sbgkit.__file__).resolve().parent != SRC / "sbgkit":
        print(f"error: imported sbgkit from {sbgkit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return sbgkit


def import_seconds() -> float:
    """Time to import sbgkit (numpy included) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip())


def warm_up(sbgkit) -> None:
    """One small call into every layer, so that lazy initialisation is paid."""
    from sbgkit import fixtures

    g = sbgkit.build_sbg()
    sbgkit.is_ics(g, next(iter(sbgkit.motif_class_sets())).members)
    sbgkit.parse_opb(sbgkit.write_opb(sbgkit.encode_ics(g, 9)))
    sbgkit.count_ics(g, 3, collect=True)
    f = sbgkit.parse_opb(fixtures.EXAMPLE_UNSAT_OPB)
    sbgkit.solve(f)
    sbgkit.verify(f, sbgkit.parse_proof(fixtures.EXAMPLE_UNSAT_PROOF))


def environment(sbgkit, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "sbgkit").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": thread_count(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(task, seconds: float) -> tuple[list[float], list, float]:
    """Run task back to back while the next run would still end in time.

    Also returns the peak RSS after the first run: later runs add only
    allocator fragmentation, which depends on how many runs fit.
    """
    times, results = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        results.append(task())
        times.append(time.perf_counter() - t0)
        if len(times) == 1:
            rss = peak_rss_mib()
        if time.perf_counter() - start + times[-1] > seconds:
            return times, results, rss


def run_untraced(sbgkit, workload, args, tmp: Path, checks):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.make_inputs(args.seed, tmp)
        warm_up(sbgkit)
        setups.append(import_seconds() + time.perf_counter() - t0)
    times, results, rss = timed_loop(lambda: workload.certify(inputs), args.seconds)
    workload.check(inputs, results, checks)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "certify_s": (statistics.median(times), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return metrics, {"setup_s": setups, "certify_s": times, "peak_rss_mib_at_end": peak_rss_mib()}


def run_traced(sbgkit, workload, args, tmp: Path, checks):
    import tracing

    inputs = workload.make_inputs(args.seed, tmp)
    warm_up(sbgkit)
    gc.collect()
    t0 = time.perf_counter()
    untraced = workload.certify(inputs)
    untraced_s = time.perf_counter() - t0
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.traced_layers(tracer):
            with tracer.span("setup"):
                traced_inputs = workload.make_inputs(args.seed, tmp)
            gc.collect()
            with tracer.span("certify") as certify:
                result = workload.certify(traced_inputs)
        workload.check(traced_inputs, [result], checks)
        passes.append((tracer, tracing.layer_metrics(tracer, certify)))
    workload.check(inputs, [untraced], checks)
    (tracer, layers), (_, again) = passes
    for key in ("solve.decisions", "solve.propagations", "solve.conflicts",
                "proof.steps", "proof.rup_steps", "oracle.subsets", "encode.constraints"):
        checks.expect(f"{key} repeats exactly ({layers[key]} vs {again[key]})",
                      layers[key] == again[key])
    for s in tracer.spans:
        if s.name.startswith("solve.budget"):
            stats = sbgkit.solve(*s.args).stats
            replayed = (stats.decisions, stats.propagations, stats.conflicts)
            recorded = (s.counts["decisions"], s.counts["propagations"], s.counts["conflicts"])
            checks.expect(f"{s.name} counts repeat untraced", replayed == recorded)
    layers["trace.overhead_s"] = layers["trace.certify_s"] - untraced_s
    layers["check_fail_ratio"] = len(checks.failures) / max(checks.attempted, 1)
    units = {k: _unit(k) for k in layers}
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    return metrics, {"untraced_certify_s": untraced_s,
                     "traced_certify_s": [p[1]["trace.certify_s"] for p in passes]}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("share", "ratio", "per_decision")):
        return "ratio"
    if name.endswith("opb_bytes"):
        return "bytes"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sbgkit = load_sbgkit()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    checks = Checks()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = run_traced if args.trace else run_untraced
        metrics, samples = run(sbgkit, workload, args, tmp, checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(checks.failures)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(sbgkit, args.seed),
        "samples": samples,
        "checks": {
            "attempted": checks.attempted,
            "failed": failed,
            "check_fail_ratio": failed / checks.attempted,
            "failures": checks.failures[:20],
        },
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
