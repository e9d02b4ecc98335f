"""Config-driven experiment runner with plot-ready CSV output.

A config is a list of tables, named and keyed by :mod:`nfdof.spec`; a new experiment
is one parser there and one rows function here, which computes a table from its key
and the spec, grids expanded.  Given the same config, seed included, outputs are
byte-identical across runs and thread counts: tables are pure functions collected in
table order, floats are serialized canonically, and the provenance timestamp comes
from SOURCE_DATE_EPOCH (fixed epoch when unset), not the wall clock.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
# build_ula, los_nusw_channel, los_usw_channel, decompose and edof3_auto go unused
# here: the benchmark probes them in this module by name
from .channel import (facing_ula_column, frobenius_normalized, los_nusw_channel,  # noqa: F401
                      los_usw_channel)
from .geometry import build_ula, continuous_aperture, rayleigh_distance  # noqa: F401
from .kernel import converge_spectrum
from .linksim import TransmissionConfig, run_link, save_link_report
from .metrics import (cap_edof1, cap_edof2, dof, edof1, edof1_limit_linear, edof2,  # noqa: F401
                      edof3_auto, metrics_report, waterfill)
from .modes import decompose, toeplitz_matrix, toeplitz_spectrum  # noqa: F401
from .spec import ExperimentSpec, Grid, _slug, validate_config


_NON_FINITE = frozenset({"nan", "inf", "-inf"})  # float.__repr__ of NaN and infinities


@dataclass(frozen=True)
class ResultTable:
    """One plot-ready curve: rectangular numeric rows under named columns,
    plus the provenance block every output file carries."""

    name: str
    columns: list
    rows: list
    provenance: dict

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a result table needs at least one column")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"ragged row in table {self.name!r}")
        if not self.provenance:
            raise ValueError("provenance block is required")

    @cached_property
    def cells(self) -> list:
        """Each row's cells as the ``float.__repr__`` text of the cell as a
        float, computed once: the summary JSON and the CSV are both joined
        from it.  NaN and infinity raise FloatingPointError, so no output
        file holds one."""
        cells = [list(map(repr, map(float, row))) for row in self.rows]
        for row in cells:
            if not _NON_FINITE.isdisjoint(row):
                text = next(t for t in row if t in _NON_FINITE)
                raise FloatingPointError(f"cannot write the non-finite value {text}")
        return cells


# --- provenance and serialization --------------------------------------------


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _provenance(cfg: dict, spec: ExperimentSpec) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "timestamp": spec.timestamp,
        "seed": spec.seed,
        "experiment": cfg["experiment"],
    }


def emit_plot_data(table: ResultTable, out_dir) -> Path:
    """Write one table as ``<name>.csv`` under ``out_dir``: '#'-prefixed
    provenance lines, a header row, '.' decimals, '\\n' line endings, and
    each cell's ``float.__repr__`` text less an integral value's .0 (-0.0
    reads 0), which round-trips bit-exactly through float().  Empty tables
    are rejected before any file is created.
    """
    if not table.rows:
        raise ValueError(f"table {table.name!r} has no rows; nothing to write")
    lines = [f"# {k}={table.provenance[k]}" for k in sorted(table.provenance)]
    lines.append(",".join(table.columns))
    # in repr text, '.0' ends a cell only when integral, and '-0' only as -0.0
    body = ("\n".join(map(",".join, table.cells)) + "\n").replace(".0,", ",")
    body = body.replace(".0\n", "\n").replace("-0,", "0,").replace("-0\n", "0\n")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{table.name}.csv"
    path.write_text("\n".join(lines) + "\n" + body)
    return path


def _dumps(value, depth: int) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, indented to sit
    ``depth`` levels deep in an enclosing document."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + "  " * depth)


def _layout(open_: str, close: str, depth: int) -> tuple:
    """What json.dumps(indent=2) puts around and between the items of a container."""
    pad = "\n" + "  " * (depth + 1)
    return open_ + pad, "," + pad, "\n" + "  " * depth + close


def _joined(open_: str, items: list, close: str, depth: int) -> str:
    """The rendered ``items`` between ``open_`` and ``close``, laid out as
    ``json.dumps(..., indent=2)`` lays out a container ``depth`` levels deep."""
    head, sep, tail = _layout(open_, close, depth)
    return head + sep.join(items) + tail if items else open_ + close


def _summary_text(summary: dict) -> str:
    """``json.dumps(summary, indent=2, allow_nan=False)`` of the summary with
    its ``tables`` entry, a list of ResultTables, written as
    ``{"name", "columns", "rows"}`` objects whose rows hold each cell as a
    float: the rows are joined from :attr:`ResultTable.cells`, and every
    other value goes through json.dumps."""
    head, sep, tail = _layout("[", "]", 4)  # a row, in "rows" of a table in "tables"

    def table(t):
        rows = [head + sep.join(row) + tail for row in t.cells]
        return _joined("{", [f'"name": {json.dumps(t.name)}',
                             f'"columns": {_dumps(t.columns, 3)}',
                             f'"rows": {_joined("[", rows, "]", 3)}'], "}", 2)

    return _joined("{", [f"{json.dumps(key)}: "
                         + (_joined("[", [table(t) for t in value], "]", 1) if key == "tables"
                            else _dumps(value, 1))
                         for key, value in summary.items()], "}", 0)


# --- experiment implementations -----------------------------------------------


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _ula_column(spec: ExperimentSpec, n: int, aperture: float, distance: float, normalize=False):
    """The first column c of the channel H of the facing ULAs at ``distance``; if asked
    times n / ||H||_F, with ||H||_F**2 = n |c_0|**2 + 2 sum_k>0 (n - k) |c_k|**2."""
    c = facing_ula_column(spec.model, n, aperture, distance, spec.wavelength)
    if not normalize:
        return c
    p = np.square(np.abs(c))
    norm = np.sqrt(n * p[0] + 2.0 * (np.arange(n - 1, 0, -1) @ p[1:]))
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero channel")
    return c * (n / norm)


def _converge(spec: ExperimentSpec, aperture: float, distance: float):
    tx = continuous_aperture((0.0, 0.0, -aperture / 2), (0.0, 0.0, aperture / 2))
    rx = continuous_aperture((0.0, distance, -aperture / 2), (0.0, distance, aperture / 2))
    return converge_spectrum(tx, rx, spec.wavelength, tol=spec.tol, max_nodes=spec.max_nodes)


def _spectrum_rows(spec, prov, key):
    n, a, d = key
    s = toeplitz_spectrum(_ula_column(spec, n, a, d))
    return [[i, v, r] for i, v, r in zip(range(1, s.size + 1), s.tolist(),
                                         (s / s[0]).tolist())], {}


def _edof_vs_n_rows(spec, prov, d):
    rows = []
    for n, a in spec.sizes:
        s = toeplitz_spectrum(_ula_column(spec, n, a, d))
        rows.append([n, a, dof(s), edof1(s, dominance=spec.dominance),
                     edof1_limit_linear(a, a, spec.wavelength, d), edof2(s)])
    return rows, {}


def _edof2_vs_n_rows(spec, prov, d):
    cap_ref = {a: cap_edof2(_converge(spec, a, d))
               for a in dict.fromkeys(a for _, a in spec.sizes)}
    rows = []
    for n, a in spec.sizes:
        s = toeplitz_spectrum(_ula_column(spec, n, a, d))
        rows.append([n, a, edof2(s), cap_ref[a]])
    return rows, {}


def _edof3_vs_snr_rows(spec, prov, d):
    ((n, a),) = spec.sizes
    s = toeplitz_spectrum(_ula_column(spec, n, a, d, spec.normalize))
    echo = {"distance_m": d, "n_elements": n, "aperture_m": a,
            "normalize": spec.normalize, "config_hash": prov["config_hash"]}
    report = metrics_report(s, [10.0 ** (db / 10.0) for db in spec.snr_db], config_echo=echo,
                            dominance=spec.dominance, delta_step=spec.delta_step)
    rows = [[db, *pair] for db, pair in zip(spec.snr_db, report["edof3_by_snr"])]
    return rows, {"metric_reports": {f"d{_slug(d)}": report}}


def _cap_edof_vs_distance_rows(spec, prov, aperture):
    rd = rayleigh_distance(aperture, spec.wavelength)
    rows = []
    for d in spec.distances:
        s = _converge(spec, aperture, d)
        rows.append([d, cap_edof1(s, dominance=spec.dominance), cap_edof2(s), rd])
    return rows, {}


def _link_sim_rows(spec, prov, d):
    ((n, a),), (snr_db,) = spec.sizes, spec.snr_db
    h = toeplitz_matrix(_ula_column(spec, n, a, d))
    # scaling the column instead moves the round-off cross_mode_leakage the references hold
    h = frobenius_normalized(h) if spec.normalize else h
    s = toeplitz_spectrum(h[:, 0])
    # the requested modes that dof counts; the lower clip of the shorter prefix keeps them all
    powers = waterfill(s[:min(spec.active_modes, dof(s))],
                       budget=10.0 ** (snr_db / 10.0), noise=1.0)
    # water-filling drops the weakest requested modes at this SNR
    powers = powers[powers > 0]
    config = TransmissionConfig(mode_powers=powers, noise_power=1.0,
                                n_symbols=spec.n_symbols, seed=spec.seed)
    report = run_link(h, config)
    rows = np.column_stack([np.arange(1, powers.size + 1), powers, report.predicted_mode_snr,
                            report.measured_mode_snr, report.mode_mse]).tolist()
    return rows, {"link_report": "link_report.json",
                  "cross_mode_leakage": report.cross_mode_leakage, "report": report}


# experiment name: (columns, rows); rows(spec, prov, key) -> (rows, extra) of one table
EXPERIMENTS = {
    "spectrum": (("mode_index", "sigma", "sigma_over_sigma1"), _spectrum_rows),
    "edof-vs-n": (("n_elements", "aperture_m", "dof", "edof1", "edof1_limit", "edof2"),
                  _edof_vs_n_rows),
    "edof2-vs-n": (("n_elements", "aperture_m", "edof2_spd", "edof2_cap"), _edof2_vs_n_rows),
    "edof3-vs-snr": (("snr_db", "snr", "edof3"), _edof3_vs_snr_rows),
    "cap-edof-vs-distance": (("distance_m", "cap_edof1", "cap_edof2", "rayleigh_distance_m"),
                             _cap_edof_vs_distance_rows),
    "link-sim": (("mode", "power", "predicted_snr", "measured_snr", "mse"), _link_sim_rows),
}


def _expanded(grid: Grid) -> tuple:
    """The values of ``grid``, as floats; one that np.geomspace rounds past an
    endpoint (3000 to 3000 in 3 steps: 3000.000000000001) reads that endpoint."""
    space = np.geomspace if grid.spacing == "log" else np.linspace
    lo, hi = sorted((grid.start, grid.stop))
    return tuple(min(max(float(x), lo), hi) for x in space(grid.start, grid.stop, grid.count))


def run_experiment(cfg: dict, out_dir=".", threads: int = 1) -> list:
    """Validate ``cfg``, run it, and write one CSV per curve plus a JSON
    summary under ``out_dir``.  Returns the result tables.  A NaN or infinite
    output value raises FloatingPointError before any file is written.

    ``threads`` computes tables in parallel without changing any output byte.
    """
    spec = validate_config(cfg)
    spec = replace(spec, **{key: _expanded(value) for key, value in vars(spec).items()
                            if isinstance(value, Grid)})
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = _provenance(cfg, spec)
    columns, rows = EXPERIMENTS[spec.experiment]
    results = _map_ordered(lambda key: rows(spec, prov, key),
                           [key for _, key in spec.tables], threads)
    tables = [ResultTable(name=name, columns=list(columns), rows=table_rows, provenance=prov)
              for (name, _), (table_rows, _) in zip(spec.tables, results)]
    extra = {}
    for _, more in results:  # a dict value gathers the entries of every table
        for key, value in more.items():
            extra[key] = {**extra.get(key, {}), **value} if isinstance(value, dict) else value
    report = extra.pop("report", None)
    summary = {"experiment": spec.experiment, "provenance": prov, "config_echo": cfg,
               "tables": tables, **extra}
    summary_path = out_dir / f"{spec.experiment.replace('-', '_')}_summary.json"
    # every table cell and extra is in the summary: render it before any write
    try:
        text = _summary_text(summary)
    except ValueError as exc:
        raise FloatingPointError(f"{summary_path.name}: {exc}") from None
    if report is not None:
        save_link_report(report, out_dir / extra["link_report"])
    for table in tables:
        emit_plot_data(table, out_dir)
    summary_path.write_text(text + "\n")
    return tables
