"""nfdof benchmark: runs one workload and prints its metrics.

    python3 nfbench/run.py --workload {shipped,array-large,kernel-nearfield}
                           [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root or anywhere else; it imports ``nfdof`` from
the ``src`` directory next to ``nfbench``.  BLAS is pinned to one thread.

``--trace 0`` reports the end-to-end metrics: the time of a warm pass
(``run_s``, the sum over configs of each one's median) and the median
set-up time of a fresh interpreter (``setup_s``), both scaled to a reference
machine speed measured in the same run, and the peak resident memory of
this process (``peak_rss_mb``).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.
Both check every config run against the reference outputs; a run that
raises, exits non-zero or mismatches counts as failed.

The workloads are fixed config lists, so ``--seed`` does not change the
inputs: it is recorded with the result.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the machine facts and a readable table.  The exit code
is 2 when the toolkit, a config or a reference file cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (ALL_STEMS, BENCH_DIR, ROOT, WORKLOADS, Calibration,  # noqa: E402
                     PassResult, import_toolkit, load_workload, machine_facts,
                     pin_blas_threads, run_pass)

SETUP_REPEATS = 7
SCRATCH = ROOT / ".nfbench_tmp"


def measure_setup(configs, calibration: Calibration) -> tuple[list[float], PassResult]:
    """Wall times of fresh interpreters running the set-up probe, after one
    untimed probe that fills the bytecode cache; each probe is one attempt."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *map(str, configs)]
    times, res = [], PassResult()
    for i in range(SETUP_REPEATS + 1):
        calibration.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        elapsed = time.perf_counter() - t0
        res.attempted += 1
        if proc.returncode != 0:
            res.failed += 1
            res.problems.append(f"set-up probe exited with {proc.returncode}\n"
                                + proc.stderr.decode(errors="replace"))
        if i:
            times.append(elapsed)
    return times, res


def pass_seconds(passes: list[PassResult]) -> float:
    """Typical warm pass: the sum over configs of each config's median time.
    For one config this is the median pass; for several, a burst of load
    from another process shifts one config's samples, not every pass."""
    stems = passes[0].seconds
    return sum(statistics.median(p.seconds[s] for p in passes) for s in stems)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_run(cli, configs, reference, scratch, seconds):
    """Set-up probes, a warm-up pass, then untraced passes until ``seconds``
    have elapsed.  Both times are scaled to the reference machine speed
    measured by the calibration samples taken between them."""
    calibration = Calibration()
    setup, probes = measure_setup(configs, calibration)
    passes = [run_pass(cli, configs, scratch, reference)]
    t_end = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < t_end:
        passes.append(run_pass(cli, configs, scratch, reference, calibration=calibration))
    scale = calibration.scale()
    run_wall, setup_wall = pass_seconds(passes[1:]), statistics.median(setup)
    metrics = {
        "run_s": {"value": run_wall * scale, "unit": "s"},
        "setup_s": {"value": setup_wall * scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    extra = {"passes": len(passes) - 1, "speed_scale": scale,
             "run_wall_s": run_wall, "setup_wall_s": setup_wall,
             "pass_wall_s_all": [sum(p.seconds.values()) for p in passes[1:]],
             "setup_wall_s_all": setup}
    return [probes] + passes, metrics, extra, []


def traced_run(cli, configs, reference, scratch, seconds):
    """A warm-up pass, then alternating untraced and traced passes until
    ``seconds`` have elapsed; per-layer metrics come from the traced ones."""
    from spans import Probes, Tracer, layer_metric_table, layer_values, summarize

    probes = Probes()
    warnings = [f"probe {name} not found; its metrics are absent" for name in probes.missing]
    passes = [run_pass(cli, configs, scratch, reference)]
    plain, traced, values = [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        plain.append(run_pass(cli, configs, scratch, reference))
        tracer = Tracer()
        with probes.installed(tracer):
            traced.append(run_pass(cli, configs, scratch, reference, tracer))
        values.append(layer_values(tracer.spans, {"files": traced[-1].files,
                                                  "bytes": traced[-1].bytes}))
        warnings += sorted(set(tracer.warnings))
    metrics, found = summarize(layer_metric_table(ALL_STEMS), values, probes.installed_spans)
    overhead = pass_seconds(traced) - pass_seconds(plain)
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return passes + plain + traced, metrics, {"passes": len(traced)}, warnings + found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        cli = import_toolkit()
        configs, reference = load_workload(args.workload)
    except (ImportError, OSError, ValueError) as exc:
        print(f"nfbench: cannot run {args.workload}: {exc}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        run = traced_run if args.trace else timed_run
        passes, metrics, extra, warnings = run(cli, configs, reference, scratch,
                                               args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for w in dict.fromkeys(warnings):
        print(f"nfbench: warning: {w}", file=sys.stderr)
    for p in passes:
        for problem in p.problems:
            print(f"nfbench: failure: {problem}", file=sys.stderr)

    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, outputs_identical=all(p.identical for p in passes),
                 fail_ratio=failed / attempted, **extra)
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:>16} {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:>16} {'fail_ratio':<44} {failed / attempted:>16.6g} ratio"
          f"  ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
