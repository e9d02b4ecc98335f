"""Record the reference outputs the benchmark checks against.

    python3 nfbench/record_reference.py [workload...]

Runs each config of each named workload (all by default) once with
SOURCE_DATE_EPOCH unset and stores every output file, with its SHA-256, in
``nfbench/reference/<workload>.json.gz``.  Re-record only when a change to
the toolkit alters its outputs on purpose, and say so where that change is
described.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import digest, save_reference  # noqa: E402
from harness import ROOT, WORKLOADS, import_toolkit, pin_blas_threads  # noqa: E402


def record(cli, name: str, scratch: Path) -> int:
    workload = WORKLOADS[name]
    files = {}
    for cfg in workload.config_paths():
        out = scratch / cfg.stem
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", str(cfg), "--out", str(out), "--threads", "1"])
        if rc != 0:
            print(f"{name}: {cfg} exited with {rc}", file=sys.stderr)
            return rc
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            files[f"{cfg.stem}/{path.name}"] = {"sha256": digest(data), "text": data.decode()}
    workload.reference.parent.mkdir(exist_ok=True)
    save_reference(workload.reference, name, files)
    print(f"{name}: {len(files)} files -> {workload.reference.relative_to(ROOT)}")
    return 0


def main(argv) -> int:
    pin_blas_threads()
    os.environ.pop("SOURCE_DATE_EPOCH", None)
    cli = import_toolkit()
    scratch = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for name in argv or sorted(WORKLOADS):
            rc = record(cli, name, scratch / name)
            if rc:
                return rc
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
