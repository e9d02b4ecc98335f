"""Output check against reference outputs recorded from a known-good commit.

Integer columns must match exactly.  Every other number must satisfy

    |value - ref| <= RTOL * |ref| + ATOL * scale

where ``scale`` is the largest magnitude in the reference column (CSV), in
the enclosing list of numbers, or in the matrix column (JSON).  The ATOL term
keeps values at round-off level, such as the tail of a singular spectrum,
from failing on a machine whose BLAS rounds differently.  RTOL admits the
documented O(delta**2) change of the edof3 column (at most 7.5e-6 absolute)
that a closed-form water-filling would bring.  The provenance ``timestamp``
depends on SOURCE_DATE_EPOCH and is not compared.

Byte identity with the reference is reported separately and is not a
failure.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-4
ATOL = 1e-9
INTEGER_COLUMNS = frozenset({"dof", "edof1", "cap_edof1", "mode_index", "n_elements", "mode"})
IGNORED_KEYS = frozenset({"timestamp"})
MAX_PROBLEMS = 5


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(path) -> dict:
    """``{"<config-stem>/<file name>": {"sha256": ..., "text": ...}}``."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["files"]


def save_reference(path, workload: str, files: dict) -> None:
    payload = {"workload": workload, "files": files}
    # mtime=0 keeps the archive itself reproducible
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write((json.dumps(payload, sort_keys=True, indent=0) + "\n").encode())


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(value, ref, scale) -> bool:
    if not (math.isfinite(value) and math.isfinite(ref)):
        return value == ref
    return abs(value - ref) <= RTOL * abs(ref) + ATOL * abs(scale)


def _number_problem(value, ref, scale, exact, where):
    if exact:
        return None if value == ref else f"{where}: {value!r} != {ref!r} (exact)"
    if _close(value, ref, scale):
        return None
    return f"{where}: {value!r} differs from {ref!r}"


# --- CSV -------------------------------------------------------------------------


def _parse_csv(text: str):
    provenance, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            provenance[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    return provenance, columns, rows


def compare_csv(text: str, ref_text: str) -> list[str]:
    prov, cols, rows = _parse_csv(text)
    rprov, rcols, rrows = _parse_csv(ref_text)
    problems = [f"provenance {k}: {prov.get(k)!r} != {rprov[k]!r}"
                for k in sorted(set(rprov) | set(prov))
                if k not in IGNORED_KEYS and prov.get(k) != rprov.get(k)]
    if cols != rcols:
        return problems + [f"columns {cols} != {rcols}"]
    if len(rows) != len(rrows):
        return problems + [f"{len(rows)} rows != {len(rrows)}"]
    for j, name in enumerate(cols):
        scale = max((abs(r[j]) for r in rrows), default=0.0)
        for i, (row, rrow) in enumerate(zip(rows, rrows)):
            p = _number_problem(row[j], rrow[j], scale, name in INTEGER_COLUMNS,
                                f"row {i + 1} {name}")
            if p:
                problems.append(p)
    return problems


# --- JSON ------------------------------------------------------------------------


def _numeric_matrix(x) -> bool:
    return (isinstance(x, list) and x and all(isinstance(r, list) for r in x)
            and len({len(r) for r in x}) == 1
            and all(_is_number(v) for r in x for v in r))


def _compare_json(value, ref, where: str, problems: list, scale=None) -> None:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            problems.append(f"{where}: keys differ")
            return
        for k in sorted(ref):
            if k not in IGNORED_KEYS:
                _compare_json(value[k], ref[k], f"{where}.{k}", problems)
    elif isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            problems.append(f"{where}: list length differs")
            return
        if _numeric_matrix(ref) and _numeric_matrix(value):
            scales = [max(abs(r[j]) for r in ref) for j in range(len(ref[0]))]
            for i, (row, rrow) in enumerate(zip(value, ref)):
                for j, (v, r) in enumerate(zip(row, rrow)):
                    _compare_json(v, r, f"{where}[{i}][{j}]", problems, scales[j])
        elif ref and all(_is_number(v) for v in ref):
            top = max(abs(v) for v in ref)
            for i, (v, r) in enumerate(zip(value, ref)):
                _compare_json(v, r, f"{where}[{i}]", problems, top)
        else:
            for i, (v, r) in enumerate(zip(value, ref)):
                _compare_json(v, r, f"{where}[{i}]", problems)
    elif _is_number(ref) and _is_number(value):
        exact = isinstance(ref, int) and isinstance(value, int)
        p = _number_problem(value, ref, ref if scale is None else scale, exact, where)
        if p:
            problems.append(p)
    elif value != ref or type(value) is not type(ref):
        problems.append(f"{where}: {value!r} != {ref!r}")


def compare_json(text: str, ref_text: str) -> list[str]:
    problems: list[str] = []
    _compare_json(json.loads(text), json.loads(ref_text), "$", problems)
    return problems


# --- one config run ----------------------------------------------------------------


def check_outputs(out_dir, stem: str, reference: dict) -> tuple[list[str], bool]:
    """Compare every file a config run wrote against the reference.

    Returns ``(problems, identical)``: the mismatches (empty when the run
    passes) and whether every file is byte-identical to the reference.
    """
    out_dir = Path(out_dir)
    prefix = f"{stem}/"
    expected = {k[len(prefix):]: v for k, v in reference.items() if k.startswith(prefix)}
    written = {p.name: p for p in out_dir.iterdir() if p.is_file()}
    problems = []
    if not expected:
        problems.append(f"no reference outputs for {stem}")
    if set(written) != set(expected):
        problems.append(f"files {sorted(written)} != reference {sorted(expected)}")
    identical = bool(expected) and set(written) == set(expected)
    for name in sorted(set(written) & set(expected)):
        data = written[name].read_bytes()
        ref = expected[name]
        if digest(data) == ref["sha256"]:
            continue
        identical = False
        text = data.decode()
        if name.endswith(".csv"):
            found = compare_csv(text, ref["text"])
        elif name.endswith(".json"):
            found = compare_json(text, ref["text"])
        else:
            found = ["unknown file type"]
        problems += [f"{stem}/{name}: {p}" for p in found[:MAX_PROBLEMS]]
    return problems, identical
