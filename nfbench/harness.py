"""Workloads, the closed-loop pass runner and the machine facts.

A pass runs every config of a workload once, in order, each through
``nfdof.cli.main(["run", <config>, "--out", <fresh dir>, "--threads", "1"])``
in this process: one caller, and each config starts when the previous one
has finished.  Outputs are checked after the pass, outside the timed calls.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib
import io
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from check import check_outputs, load_reference
from spans import ROOT_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # paths relative to the repository root

    @property
    def reference(self) -> Path:
        return BENCH_DIR / "reference" / f"{self.name}.json.gz"

    def config_paths(self) -> list[Path]:
        return [ROOT / c for c in self.configs]


SHIPPED = ("cap_edof_vs_distance", "edof2_vs_n", "edof2_vs_n_growing", "edof3_vs_snr",
           "edof_vs_n", "link_sim", "spectrum")

WORKLOADS = {w.name: w for w in (
    Workload("shipped", tuple(f"configs/{s}.json" for s in SHIPPED)),
    Workload("array-large", ("nfbench/configs/array_large.json",)),
    Workload("kernel-nearfield", ("nfbench/configs/kernel_nearfield.json",)),
)}

ALL_STEMS = tuple(sorted({Path(c).stem for w in WORKLOADS.values() for c in w.configs}))


def pin_blas_threads() -> None:
    """One BLAS thread: must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_toolkit():
    """Import ``nfdof`` from the ``src`` directory next to this one and
    nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("nfdof.cli")
    where = Path(cli.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"nfdof was imported from {where}, not from {src}")
    return cli


# --- machine speed -----------------------------------------------------------------


class Calibration:
    """Machine-speed probe: a fixed mix of interpreted Python and LAPACK work
    that does not touch nfdof, sampled between the measured calls.

    The host of a shared machine switches between speed states about 35 %
    apart that last tens of seconds, longer than some runs.  ``scale()``
    converts a time measured in this run into a time at the
    reference speed, at which one sample takes ``REFERENCE_S``.
    """

    REFERENCE_S = 0.004
    REPEATS = 3

    def __init__(self):
        import numpy as np  # only after the BLAS threads are pinned

        rng = np.random.default_rng(0)
        self._svd = np.linalg.svd
        self._a = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._svd(self._a, compute_uv=False)
            acc = 0.0
            for i in range(30000):
                acc += i * 0.5
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)


# --- passes ------------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: dict = field(default_factory=dict)  # config stem -> timed cli.main call
    attempted: int = 0
    failed: int = 0
    identical: bool = True
    files: int = 0
    bytes: int = 0
    problems: list = field(default_factory=list)


def run_pass(cli, configs: list[Path], scratch: Path, reference: dict,
             tracer: Tracer | None = None,
             calibration: Calibration | None = None) -> PassResult:
    """Run each config once, then check and delete its outputs.

    A config fails if ``main`` returns non-zero, raises, or writes outputs
    that do not match the reference; the remaining configs still run.
    ``calibration`` is sampled before each config, outside its timing.
    """
    res = PassResult()
    for cfg in configs:
        if calibration is not None:
            calibration.sample()
        out = scratch / f"out-{cfg.stem}"
        argv = ["run", str(cfg), "--out", str(out), "--threads", "1"]
        rc = None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span(ROOT_SPAN) as root:
                        # a raise counts as a non-zero exit, as it would from the shell
                        root.counts.update(stem=cfg.stem, exit_nonzero=1)
                        rc = cli.main(argv)
                        root.counts["exit_nonzero"] = int(rc != 0)
            except Exception:
                res.problems.append(f"{cfg.stem}: raised\n{traceback.format_exc()}")
            res.seconds[cfg.stem] = time.perf_counter() - t0
        res.attempted += 1
        if rc != 0:
            if rc is not None:
                res.problems.append(f"{cfg.stem}: exit code {rc}")
            res.failed += 1
            res.identical = False
        else:
            problems, identical = check_outputs(out, cfg.stem, reference)
            res.identical &= identical
            if problems:
                res.failed += 1
                res.problems += problems
        if out.is_dir():
            written = [p for p in out.iterdir() if p.is_file()]
            res.files += len(written)
            res.bytes += sum(p.stat().st_size for p in written)
            shutil.rmtree(out)
    return res


def load_workload(name: str):
    """The workload's config paths and reference outputs; raises
    FileNotFoundError when either is missing."""
    w = WORKLOADS[name]
    configs = w.config_paths()
    for c in configs:
        if not c.is_file():
            raise FileNotFoundError(f"config {c} not found")
    return configs, load_reference(w.reference)


# --- machine facts -----------------------------------------------------------------


def _blas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    """HEAD of the repository, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_date_epoch_set": "SOURCE_DATE_EPOCH" in os.environ,
    }
