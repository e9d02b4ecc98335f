"""Set-up probe: a fresh interpreter imports ``nfdof.cli`` and loads and
validates each config given on the command line through
``nfdof validate``, then exits before any computation.  Exits non-zero if
any config is rejected.

    python3 nfbench/setup_probe.py <config.json>...
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nfdof import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["validate", path]) for path in sys.argv[1:]]
sys.exit(max(codes, default=0))
