"""Time a change against a parent commit on the benchmark, in alternating pairs.

    python tools/bench_pairs.py PARENT_REF --workload W [--workload W ...] --pairs N
                                [--traced] [--stress] [--what TEXT] [--claim TEXT]
                                [--out FILE]

Both sides are ``git archive`` copies in a temporary directory: PARENT_REF,
and the change, which is the staged tree (``git write-tree``), so stage the
change first.  Pair i of workload w runs ``nfbench/run.py --workload W
--seconds S --trace 0 --seed 700 + 20 w + i`` in both copies, S being the
``run_seconds`` of ``BENCHMARK.json``, the parent first on even i and the
change first on odd i, with ``OPENBLAS_NUM_THREADS=1`` and no
``PYTHONPATH``.  Every run is kept; each end-to-end metric of
``BENCHMARK.json`` gets its median and quartiles per side
(``statistics.quantiles``, inclusive), the pairs the change wins, and the
gap between the medians.  The JSON goes to ``--out``, or to standard output.

``--traced`` then adds, per workload, 5 ``--trace 1`` pairs, the parent
first in traced pairs 0, 2 and 4 and the change first in 1 and 3, since
the second run of a pair can read slower in every layer.  Under
``traced.<workload>.layers`` each per-layer metric gets each side's
quartiles, minimum and maximum, the gap between the medians (change minus
parent), its spread (the wider of the two sides' ranges) and whether the gap
lies within that spread.  Run on a commit against itself, every layer should.
Nothing is written into either copy's ``nfbench/`` but what ``run.py``
itself leaves there.

``--stress`` then runs each config of ``tools/stress/`` (the change's copy,
on both sides) in N alternating pairs, the parent first in even pairs.  A
run is a fresh interpreter in the side's copy that imports ``nfdof`` from
its ``src/`` and calls ``nfdof.cli.main`` on the config twice: ``run_s`` is
the wall time of the second call, and ``peak_rss_mb`` the peak resident
memory of the process.  Under ``stress.metrics.<config>`` they get the same
statistics as the workloads' end-to-end metrics.  The two sides' outputs are
then compared by ``tools/traffic_outputs.py``'s check, with the parent's as
the reference, and a failing file, like a run that exits non-zero, makes the
exit status non-zero.  The stress configs are sized for the solvers (N up to
16384), not for the test suite, which never runs them.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

from traffic_outputs import compare_trees

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 700
TRACED_PAIRS = 5
# one stress run: an untimed call of the CLI, then a timed one, in one interpreter
STRESS_RUN = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, "src")
from nfdof.cli import main
argv = ["run", sys.argv[1], "--out", sys.argv[2]]
with contextlib.redirect_stdout(io.StringIO()):
    main(argv)
    start = time.perf_counter()
    code = main(argv)
    run_s = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "run_s": run_s, "peak_rss_mb": peak}))
"""


def git(*args, **kwargs) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, **kwargs).stdout


def checkout(ref: str, into: Path) -> Path:
    """A copy of the committed files of ``ref`` (a commit or tree) in ``into``."""
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", ref), check=True)
    return into


def source_lines(tree: Path) -> int:
    """``wc -l src/nfdof/*.py``: the newline count of the package modules."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "nfdof").glob("*.py"))


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``nfbench/run.py`` run in ``tree``, as a record of the JSON layout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "nfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--seed", str(seed)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    return {"workload": workload, "seed": seed, "trace": trace, "code": proc.returncode,
            "metrics": {k: m["value"] for k, m in result.get("metrics", {}).items()},
            "failed": result.get("failed"), "attempted": result.get("attempted")}


def stress(tree: Path, config: Path, out: Path) -> dict:
    """One run of a stress config in ``tree`` (:data:`STRESS_RUN`), its
    outputs written under ``out``, as a record of the JSON layout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", STRESS_RUN, str(config), str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    code = proc.returncode or result.get("code", 1)
    return {"config": config.name, "code": code,
            "metrics": {k: result[k] for k in ("run_s", "peak_rss_mb") if not code}}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(pairs: list, end_to_end: list) -> dict:
    """Per end-to-end metric: each side's quartiles and runs, the pairs the
    change wins, its median's relative change, the parent's interquartile
    range and by how much the change's median is better (negative: worse)."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        runs = {side: [pair[side]["metrics"][name] for pair in pairs
                       if name in pair[side]["metrics"]] for side in SIDES}
        if min(map(len, runs.values())) < 2:
            continue
        stats = {side: quartiles(runs[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        out[name] = {**stats, "parent_runs": runs["parent"], "change_runs": runs["change"],
                     "change_wins": sum(sign * (c - p) < 0 for p, c in
                                        zip(runs["parent"], runs["change"])),
                     "median_change_rel": (change - parent) / parent,
                     "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
                     "median_gap": sign * (parent - change)}
    return out


def layers(pairs: list) -> dict:
    """Per-layer metric of the traced pairs: each side's quartiles, minimum
    and maximum, the gap between the medians (change minus parent), its
    spread (the wider of the two sides' ranges) and whether the gap lies
    within it."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        runs = {side: [pair[side]["metrics"][name] for pair in pairs
                       if name in pair[side]["metrics"]] for side in SIDES}
        if min(map(len, runs.values())) < 2:
            continue
        stats = {side: {**quartiles(runs[side]), "min": min(runs[side]),
                        "max": max(runs[side])} for side in SIDES}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        spread = max(s["max"] - s["min"] for s in stats.values())
        out[name] = {**stats, "median_gap": gap, "spread": spread,
                     "within_spread": abs(gap) <= spread}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true",
                        help=f"{TRACED_PAIRS} --trace 1 pairs per workload after the "
                             "pairs, alternating which side runs first")
    parser.add_argument("--stress", action="store_true",
                        help="then the tools/stress configs in --pairs alternating pairs, "
                             "and their outputs compared")
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--claim", default="", help="the metric the change claims to improve")
    parser.add_argument("--out", type=Path, help="the JSON file (default: standard output)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if not (args.workload or args.stress):
        parser.error("give a --workload, --stress or both")

    refs = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip(),
            "change": git("write-tree").decode().strip()}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: checkout(refs[side], work / side) for side in SIDES}
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        end_to_end, seconds = declared["end_to_end"], declared["run_seconds"]
        runs, workloads, traced = [], {}, {}

        def record(side, *bench_args):
            print(f"{side} {' '.join(map(str, bench_args))}", file=sys.stderr)
            runs.append({"side": side, **bench(trees[side], *bench_args)})
            return runs[-1]

        for w, workload in enumerate(args.workload):
            seeds = [SEED + 20 * w + i for i in range(args.pairs)]
            pairs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pairs.append({side: record(side, workload, seed, seconds, 0)
                              for side in order})
            workloads[workload] = {
                "pairs": args.pairs, "seeds": seeds, "metrics": compare(pairs, end_to_end),
                "failed": {side: sum(p[side]["failed"] or 0 for p in pairs) for side in SIDES},
                "attempted": {side: sum(p[side]["attempted"] or 0 for p in pairs)
                              for side in SIDES},
                "exit_codes_nonzero": sum(p[side]["code"] != 0 for p in pairs for side in SIDES)}
        if args.traced:
            seeds = [SEED + 20 * len(args.workload) + i for i in range(TRACED_PAIRS)]
            for workload in args.workload:
                pairs = []
                for i, seed in enumerate(seeds):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pairs.append({side: record(side, workload, seed, seconds, 1)
                                  for side in order})
                traced[workload] = {"seeds": seeds,
                                    "first": [SIDES[i % 2] for i in range(TRACED_PAIRS)],
                                    "layers": layers(pairs)}
        stressed = {}
        if args.stress:
            configs = sorted((trees["change"] / "tools" / "stress").glob("*.json"))
            outs = {side: work / "stress" / side for side in SIDES}
            metrics, nonzero = {}, 0
            for config in configs:
                pairs = []
                for i in range(args.pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pairs.append({})
                    for side in order:
                        print(f"{side} stress {config.name}", file=sys.stderr)
                        runs.append({"side": side,
                                     **stress(trees[side], config, outs[side] / config.stem)})
                        pairs[-1][side] = runs[-1]
                metrics[config.name] = compare(pairs, end_to_end)
                nonzero += sum(p[side]["code"] != 0 for p in pairs for side in SIDES)
            check = io.StringIO()
            with contextlib.redirect_stdout(check):
                passed = compare_trees(outs["change"], outs["parent"])
            sys.stderr.write(check.getvalue())
            stressed = {"configs": [c.name for c in configs], "pairs": args.pairs,
                        "metrics": metrics, "exit_codes_nonzero": nonzero,
                        "outputs_pass": passed, "outputs": check.getvalue().splitlines()}
        report = {
            "what": args.what, "claim": args.claim,
            "method": (f"Alternating pairs per workload (even pairs run the parent first, odd "
                       f"pairs the change first), each run `python3 nfbench/run.py --workload W "
                       f"--seconds {seconds:g} --trace 0 --seed S` from a git archive copy "
                       f"of each side (parent {refs['parent']}, change {refs['change']}), with "
                       f"OPENBLAS_NUM_THREADS=1 and no PYTHONPATH, by tools/bench_pairs.py"
                       + (f", then {TRACED_PAIRS} traced pairs per workload (`--trace 1`, "
                          "the parent first in even pairs and the change first in odd "
                          "ones; per-layer quartiles under traced.<workload>.layers)"
                          if args.traced else "")
                       + (", then the tools/stress configs in the same number of alternating "
                          "pairs, each run a fresh interpreter calling nfdof.cli.main on the "
                          "config twice, the second call timed (under stress)"
                          if args.stress else "")
                       + ". Every run made is listed. Quartiles are "
                       "statistics.quantiles(method='inclusive')."),
            "machine": {"cpus_usable": len(os.sched_getaffinity(0)), "nproc": os.cpu_count(),
                        "numpy": metadata.version("numpy"), "python": platform.python_version(),
                        "blas_threads": 1},
            "workloads": workloads, "traced": traced, "stress": stressed,
            "src_lines": {"what": "wc -l src/nfdof/*.py",
                          **{side: source_lines(trees[side]) for side in SIDES}},
            "runs": runs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    failed = any(w["exit_codes_nonzero"] for w in workloads.values())
    return 1 if failed or stressed.get("exit_codes_nonzero") or \
        stressed.get("outputs_pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
