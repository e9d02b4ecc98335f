"""Write the outputs of the nine traffic configs, one directory per config.

Runs ``nfdof run <config> --out OUT/<stem> --threads N`` in this process for
every config that ``tools/traffic_trace.py`` traces, from the ``src/``
of this checkout, and exits non-zero when a run does.  A byte-identity claim
between two checkouts, or two thread counts, is then one ``diff -r``:

    python tools/traffic_outputs.py /tmp/before --threads 1
    python tools/traffic_outputs.py /tmp/after --threads 4
    diff -r /tmp/before /tmp/after

The provenance timestamp comes from SOURCE_DATE_EPOCH (the epoch when it is
unset), so leave it unset, or equal, in both runs.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from traffic_trace import REPO, traffic_configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write OUT/<stem>/ into")
    parser.add_argument("--threads", type=int, default=1, help="grid-point threads (default 1)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))
    from nfdof.cli import main as nfdof_main

    failed = []
    for config in traffic_configs():
        with contextlib.redirect_stdout(io.StringIO()):
            code = nfdof_main(["run", str(config), "--out", str(args.out / config.stem),
                               "--threads", str(args.threads)])
        if code:
            failed.append(f"{config.name}: exit {code}")
    print("\n".join(failed) or f"wrote {len(traffic_configs())} configs under {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
