"""Wall-clock benchmark of cloudrerun: end to end and layer by layer.

Run one workload in this process:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

or every workload, each in its own process, one after the other:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced epochs, reports the per-layer metrics of the
traced ones plus the tracing overhead, and writes the spans to
``.perfbench-out/``.  The program is imported from ``src/`` next to this
directory; the benchmark exits with status 2 when it is missing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the host, every named metric with its unit, and a ``report:`` line
with the same figures as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script, this directory is sys.path[0], where its trace.py
    # would shadow the standard library's; import the package by name.
    sys.path[0] = str(ROOT)

from perfbench import stats, trace, workloads  # noqa: E402

# Set-ups measured per run.  The host's speed shifts between phases that
# can outlast a set-up, so they are spread over the run rather than taken
# back to back.
SETUP_SAMPLES = 6
# The op-time median is taken per block of whole untraced epochs holding at
# least this many ops, then averaged over the blocks.  The host's speed
# shifts in phases of seconds, about 1.5x apart, so pooled over a run the
# op times form one mode per phase, and a pooled median jumps between the
# modes with the share of the run spent in slow phases; the mean of block
# medians moves in proportion to that share instead.  The p90 lies in the
# tail, where the phases overlap, and is taken over all ops of the run.
BLOCK_OPS = 100
SPANS_DIR = ROOT / ".perfbench-out"
WORK_ROOT = ROOT / ".perfbench-tmp"

# The end-to-end metrics every workload reports on its last line.  The op
# mix of a workload decides what an op is: one request (oneshot), one of
# run/reproduce/query/fetch (longlived), one CLI command (cli_session).
# Times are CPU time of the benchmark's single thread: ops only compute and
# write to the page cache, so on an idle host CPU time is the wall time, and
# unlike wall time it leaves out time the hypervisor takes from the VM.
END_TO_END = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_cpu_p50_ms": "ms",
    "op_cpu_p90_ms": "ms",
    "state_mb": "MB",
    "peak_rss_mb": "MB",
}
# Per-kind latencies, reported when the workload has the op kind.
OP_KINDS = ("run", "reproduce", "query", "fetch", "cli")


def host_block() -> dict:
    src = ROOT / "src"
    lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(src.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_py_lines": lines,
    }


def _ms_percentiles(samples_ns: list[int]) -> dict[str, float]:
    out = {}
    for q in (50, 90):
        try:
            out[f"p{q}"] = stats.percentile(samples_ns, q) / 1e6
        except stats.InsufficientSamples:
            pass
    return out


def _pooled(by_kind: dict[str, list[int]]) -> list[int]:
    return [ns for samples in by_kind.values() for ns in samples]


def _enough_samples(rec: workloads.Recorder) -> bool:
    samples = _pooled(rec.cpu_ns)
    try:
        stats.percentile(samples, 90)
    except stats.InsufficientSamples:
        return False
    return True


def timed_setup(name: str, seed: int, workdir: Path):
    """Import cloudrerun and set the workload up: (workload, CPU s, wall s)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()
    wall, cpu = time.perf_counter(), time.thread_time()
    workload = workloads.WORKLOADS[name](workloads.import_cloudrerun(ROOT / "src"), seed, workdir)
    workload.setup()
    return workload, time.thread_time() - cpu, time.perf_counter() - wall


def sample_setup(name: str, seed: int, workdir: Path, baseline: set[str]) -> tuple[float, float]:
    """Time one more set-up, as the first one was timed: every module not in
    ``baseline`` (cloudrerun and the standard-library modules only it
    imports) is imported afresh.  The running workload's modules are put
    back afterwards."""
    loaded = {n: m for n, m in sys.modules.items() if n not in baseline}
    for module in loaded:
        del sys.modules[module]
    try:
        _, cpu, wall = timed_setup(name, seed, workdir)
    finally:
        for module in [n for n in sys.modules if n not in baseline]:
            del sys.modules[module]
        sys.modules.update(loaded)
        # Importing a submodule afresh rebinds it on its package.
        for module_name, module in loaded.items():
            package, _, attr = module_name.rpartition(".")
            if package in sys.modules:
                setattr(sys.modules[package], attr, module)
        shutil.rmtree(workdir, ignore_errors=True)
    return cpu, wall


def measure(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    baseline = set(sys.modules)
    workload, cpu, wall = timed_setup(name, seed, workdir / "run")
    setups = [(cpu, wall)]

    plain, in_trace = workloads.Recorder(), workloads.Recorder()
    tracer = trace.Tracer() if traced else None
    digest = hashlib.sha256()
    block_start: dict[str, int] = {}  # op kind -> its samples before the open block
    block_p50s = []  # median op time of each closed block, ns
    epoch = 0
    while True:
        tracing = traced and epoch % 2 == 1
        rec = in_trace if tracing else plain
        gc.collect()
        if tracing:
            tracer.install()
        try:
            workload.run_epoch(epoch, rec, tracer if tracing else None,
                               digest if epoch == 0 else None)
        finally:
            if tracing:
                tracer.uninstall()
        epoch += 1
        if not tracing:
            block = [ns for kind, samples in plain.cpu_ns.items()
                     for ns in samples[block_start.get(kind, 0):]]
            if len(block) >= BLOCK_OPS:
                block_p50s.append(stats.percentile(block, 50))
                block_start = {kind: len(samples) for kind, samples in plain.cpu_ns.items()}
        measured_s = (plain.timed_cpu_ns + in_trace.timed_cpu_ns) / 1e9
        if len(setups) < SETUP_SAMPLES and measured_s >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(sample_setup(name, seed, workdir / "setup", baseline))
        # A closed block holds enough ops for the pooled p90 too.
        if measured_s >= seconds and block_p50s and (not traced or _enough_samples(in_trace)):
            break

    attempted = plain.attempted + in_trace.attempted
    failed = plain.failed + in_trace.failed
    cpu = _ms_percentiles(_pooled(plain.cpu_ns))
    wall = _ms_percentiles(_pooled(plain.wall_ns))
    metrics = {
        "setup_s": statistics.median(c for c, _ in setups),
        "ops_per_cpu_s": plain.attempted / (plain.timed_cpu_ns / 1e9),
        "op_cpu_p50_ms": statistics.fmean(block_p50s) / 1e6,
        "op_cpu_p90_ms": cpu["p90"],
        "state_mb": workload.state_bytes / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    # Wall-clock figures, as a user sees them, beside the gated CPU ones.
    named["setup_wall_s"] = {"value": statistics.median(w for _, w in setups), "unit": "s"}
    named["ops_per_s"] = {"value": plain.attempted / (plain.timed_wall_ns / 1e9), "unit": "1/s"}
    named["op_p50_ms"] = {"value": wall["p50"], "unit": "ms"}
    named["op_p90_ms"] = {"value": wall["p90"], "unit": "ms"}
    samples = {}
    for kind in OP_KINDS:
        if kind not in plain.cpu_ns:
            continue
        samples[kind] = len(plain.cpu_ns[kind])
        for clock, by_kind in (("", plain.wall_ns), ("cpu_", plain.cpu_ns)):
            for q, value in _ms_percentiles(by_kind[kind]).items():
                named[f"{kind}_{clock}{q}_ms"] = {"value": value, "unit": "ms"}
    named["error_rate"] = {"value": failed / attempted, "unit": "ratio"}

    report = {
        "workload": name,
        "seed": seed,
        "host": host_block(),
        "epochs": epoch,
        "blocks": len(block_p50s),
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "setup_runs_s": setups,
        "samples": samples,
        "metrics": named,
        "failures": plain.reasons + in_trace.reasons,
    }
    if traced:
        summary = trace.summarize(tracer)
        layer = {k: {"value": v, "unit": u} for k, (v, u) in trace.layer_values(summary).items()}
        untraced = plain.attempted / plain.timed_cpu_ns
        traced_rate = in_trace.attempted / in_trace.timed_cpu_ns
        layer["trace.overhead_ratio"] = {
            "value": untraced / traced_rate, "unit": trace.OVERHEAD_METRICS["trace.overhead_ratio"][0]}
        report["per_layer"] = layer
        report["hook_failures"] = dict(tracer.hook_failures)
        report["traced_ops"] = summary.ops
        spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def print_report(report: dict) -> None:
    host = report["host"]
    print(f"host: python {host['python']}, nproc {host['nproc']}, "
          f"src lines {host['src_py_lines']}")
    print(f"{report['workload']} seed {report['seed']}: {report['epochs']} epochs, "
          f"{report['attempted']} ops, {report['failed']} failed, digest {report['digest']}")
    for section in ("metrics", "per_layer"):
        for name, metric in report.get(section, {}).items():
            print(f"  {name:<66} {metric['value']:>14.6g} {metric['unit']}")
    for reason in report["failures"][:5]:
        print(f"  failure: {reason}")
    for hook, calls in report.get("hook_failures", {}).items():
        print(f"  counter hook failed on {calls} calls: {hook}")


def result_line(report: dict, traced: bool) -> dict:
    if traced:
        metrics = report["per_layer"]
    else:
        metrics = {k: report["metrics"][k] for k in END_TO_END}
    return {
        # A counter whose hook failed would read as a gain, so it fails the run.
        "correct": report["failed"] == 0 and not report.get("hook_failures"),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run_one(args) -> int:
    for var in [v for v in os.environ if v.startswith("CLOUDRERUN_")]:
        del os.environ[var]
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print_report(report)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints each report, then one line
    whose metrics are named ``<workload>.<metric>``."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "cloudrerun" / "__init__.py").is_file():
        print(f"error: no cloudrerun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
