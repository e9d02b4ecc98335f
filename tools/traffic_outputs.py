"""Write the outputs of the nine traffic configs, one directory per config.

Runs ``nfdof run <config> --out OUT/<stem> --threads N`` in this process for
every config that ``tools/traffic_trace.py`` traces, from the ``src/``
of this checkout, and exits non-zero when a run does.  A byte-identity claim
between two checkouts, or two thread counts, is then one ``diff -r``:

    python tools/traffic_outputs.py /tmp/before --threads 1
    python tools/traffic_outputs.py /tmp/after --threads 4
    diff -r /tmp/before /tmp/after

With ``--against DIR`` every written file is then compared with the file of
the same name under DIR (say, the outputs of a parent commit) by the
benchmark's own output check (``compare_csv`` and ``compare_json`` of
``nfbench/check.py``), and printed as identical, within tolerance (with
each moved column's largest change relative to its cells, and apart from
it the largest change of the round-off tail relative to the column scale)
or failing; a failing or missing file makes the exit status non-zero:

    python tools/traffic_outputs.py /tmp/after --against /tmp/before

The provenance timestamp comes from SOURCE_DATE_EPOCH (the epoch when it is
unset), so leave it unset, or equal, in both runs.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from traffic_trace import REPO, traffic_configs

sys.path.insert(0, str(REPO / "nfbench"))
from check import ATOL, _parse_csv, compare_csv, compare_json  # noqa: E402


def numbers(path: Path, text: str) -> dict:
    """Column label -> the numbers of that column, in file order: a CSV
    column by its name, a JSON result-table cell as ``<table>.<column>`` and
    any other JSON number by its path, with ``[*]`` for list positions."""
    cells: dict = {}
    if path.suffix == ".csv":
        _, columns, rows = _parse_csv(text)
        for row in rows:
            for name, value in zip(columns, row):
                cells.setdefault(name, []).append(value)
        return cells

    def walk(node, where):
        if isinstance(node, dict):
            if isinstance(node.get("columns"), list) and isinstance(node.get("rows"), list):
                for row in node["rows"]:
                    for name, value in zip(node["columns"], row):
                        cells.setdefault(f"{node.get('name', where)}.{name}", []).append(value)
            for key, value in node.items():
                if key != "rows":
                    walk(value, f"{where}.{key}")
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{where}[*]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            cells.setdefault(where, []).append(node)

    walk(json.loads(text), "$")
    return cells


def moved_columns(path: Path, text: str, ref_text: str) -> dict:
    """Label -> ``(cell, tail)`` for every column with a changed cell, the
    column scale being its largest |ref|: ``cell`` is the largest
    |value - ref| / |ref| over the changed cells with |ref| at or above
    ``ATOL`` (1e-9) times the scale, and ``tail`` the largest
    |value - ref| / scale over the other changed cells, the round-off tail
    that the check holds to ``ATOL`` times the scale; None where no cell of
    that kind changed."""
    new, ref = numbers(path, text), numbers(path, ref_text)
    moved = {}
    for label, refs in ref.items():
        scale = max(abs(r) for r in refs)
        cell, tail = [], []
        for v, r in zip(new.get(label, []), refs):
            if v != r:
                if abs(r) >= ATOL * scale:
                    cell.append(abs(v - r) / abs(r))
                else:
                    tail.append(abs(v - r) / scale)
        if cell or tail:
            moved[label] = (max(cell, default=None), max(tail, default=None))
    return moved


def describe_move(label: str, cell, tail) -> str:
    """``label cell (tail T of scale)``, each part only where it moved."""
    text = label if cell is None else f"{label} {cell:.2g}"
    return text if tail is None else f"{text} (tail {tail:.2g} of scale)"


def compare_trees(out: Path, against: Path) -> bool:
    """Print every file under ``out`` as identical, within tolerance or
    failing against its namesake under ``against``; True when none fails."""
    compare = {".csv": compare_csv, ".json": compare_json}
    names = sorted({p.relative_to(root) for root in (out, against)
                    for p in root.rglob("*") if p.is_file()})
    tally = {"identical": 0, "within tolerance": 0, "failing": 0}
    for name in names:
        mine, ref = out / name, against / name
        if not (mine.is_file() and ref.is_file()):
            verdict, detail = "failing", f"only under {out if mine.is_file() else against}"
        elif mine.read_bytes() == ref.read_bytes():
            verdict, detail = "identical", ""
        elif name.suffix not in compare:
            verdict, detail = "failing", "bytes differ"
        else:
            text, ref_text = mine.read_text(), ref.read_text()
            problems = compare[name.suffix](text, ref_text)
            if problems:
                verdict, detail = "failing", "; ".join(problems[:5])
            else:
                verdict = "within tolerance"
                detail = ", ".join(describe_move(label, *change) for label, change
                                   in moved_columns(name, text, ref_text).items())
        tally[verdict] += 1
        print(f"{verdict:16s}  {name}" + (f": {detail}" if detail else ""))
    print(", ".join(f"{n} {verdict}" for verdict, n in tally.items()))
    return not tally["failing"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write OUT/<stem>/ into")
    parser.add_argument("--threads", type=int, default=1, help="grid-point threads (default 1)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare every written file with its namesake under DIR")
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
    if args.against is not None and not compare_trees(args.out, args.against):
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
