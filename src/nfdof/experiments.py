"""Config-driven experiment runner with plot-ready CSV/JSON output.

Each experiment is described by a single JSON document.  Physical parameters
(carrier and geometry) are always explicit; unknown keys are rejected.  Given
the same config and seed, outputs are byte-identical across runs and across
thread counts: grid points are pure functions collected in grid order, floats
are serialized canonically, and the provenance timestamp is taken from
SOURCE_DATE_EPOCH (fixed epoch when unset) rather than the wall clock.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channel import frobenius_normalized, los_nusw_channel, los_usw_channel
from .errors import ConfigError
from .geometry import CarrierConfig, build_ula, continuous_aperture, rayleigh_distance
from .kernel import GaussLegendreRules, cap_edof1, cap_edof2, converge_spectrum
from .linksim import TransmissionConfig, run_link, save_link_report
from .metrics import (dof, edof1, edof1_limit_linear, edof2, edof3_auto,
                      metrics_report, waterfill)
from .modes import decompose

EXPERIMENTS = ("spectrum", "edof-vs-n", "edof2-vs-n", "edof3-vs-snr",
               "cap-edof-vs-distance", "link-sim")

_EPOCH_ISO = "1970-01-01T00:00:00Z"


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


# --- config validation -------------------------------------------------------


def _check_keys(obj: dict, allowed: set, required: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)} in {where}")


def _number(obj, key, where, *, positive=False, integer=False, minimum=None):
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {val!r}")
    if integer and not float(val).is_integer():
        raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
    if positive and not val > 0:
        raise ConfigError(f"{where}.{key} must be positive, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {val!r}")
    return int(val) if integer else float(val)


def _number_list(obj, key, where, *, positive=False, integer=False):
    val = obj[key]
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{where}.{key} must be a nonempty list")
    return [_number({key: v}, key, f"{where}[{i}]", positive=positive, integer=integer)
            for i, v in enumerate(val)]


def _parse_carrier(cfg: dict) -> CarrierConfig:
    if "carrier" not in cfg:
        raise ConfigError("missing required key(s) ['carrier'] in config")
    car = cfg["carrier"]
    if not isinstance(car, dict):
        raise ConfigError("carrier must be an object")
    _check_keys(car, {"frequency_hz", "wavelength_m"}, set(), "carrier")
    try:
        if "frequency_hz" in car and "wavelength_m" in car:
            return CarrierConfig(frequency=_number(car, "frequency_hz", "carrier", positive=True),
                                 wavelength=_number(car, "wavelength_m", "carrier", positive=True))
        if "frequency_hz" in car:
            return CarrierConfig.from_frequency(_number(car, "frequency_hz", "carrier", positive=True))
        if "wavelength_m" in car:
            return CarrierConfig.from_wavelength(_number(car, "wavelength_m", "carrier", positive=True))
    except ValueError as exc:
        raise ConfigError(f"invalid carrier: {exc}") from exc
    raise ConfigError("carrier needs frequency_hz or wavelength_m")


def _parse_axis(geo: dict):
    if "axis" not in geo:
        return (0.0, 0.0, 1.0)
    axis = geo["axis"]
    if not isinstance(axis, list) or len(axis) != 3:
        raise ConfigError("geometry.axis must be a 3-element list")
    return tuple(float(x) for x in axis)


def _parse_grid(obj, key, where) -> list:
    """A distance/SNR grid: either an explicit list or {start, stop, count,
    spacing} with log spacing by default."""
    val = obj[key]
    if isinstance(val, list):
        return _number_list(obj, key, where)
    if not isinstance(val, dict):
        raise ConfigError(f"{where}.{key} must be a list or a grid object")
    _check_keys(val, {"start", "stop", "count", "spacing"}, {"start", "stop", "count"},
                f"{where}.{key}")
    start = _number(val, "start", f"{where}.{key}")
    stop = _number(val, "stop", f"{where}.{key}")
    count = _number(val, "count", f"{where}.{key}", integer=True, minimum=2)
    spacing = val.get("spacing", "log")
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError(f"{where}.{key}: log spacing needs positive endpoints")
        return [float(x) for x in np.geomspace(start, stop, count)]
    if spacing == "linear":
        return [float(x) for x in np.linspace(start, stop, count)]
    raise ConfigError(f"{where}.{key}.spacing must be 'log' or 'linear'")


def _kernel_options(cfg: dict) -> dict:
    ker = cfg.get("kernel", {})
    if not isinstance(ker, dict):
        raise ConfigError("kernel must be an object")
    _check_keys(ker, {"tol", "start_nodes", "max_nodes"}, set(), "kernel")
    return {
        "tol": _number(ker, "tol", "kernel", positive=True) if "tol" in ker else 1e-6,
        "start_nodes": _number(ker, "start_nodes", "kernel", integer=True, minimum=8)
        if "start_nodes" in ker else 64,
        "max_nodes": _number(ker, "max_nodes", "kernel", integer=True, minimum=8)
        if "max_nodes" in ker else 4096,
    }


def _ula_sizes(geo: dict, where: str):
    """Element counts with their apertures.  Exactly one of aperture_m (fixed
    aperture, density sweep) or element_spacing_m (fixed pitch, growing array)
    must be given."""
    has_ap = "aperture_m" in geo
    has_sp = "element_spacing_m" in geo
    if has_ap == has_sp:
        raise ConfigError(f"{where} needs exactly one of aperture_m or element_spacing_m")
    ns = _number_list(geo, "n_elements", where, integer=True)
    if any(n < 2 for n in ns):
        raise ConfigError(f"{where}.n_elements entries must be >= 2")
    if has_ap:
        a = _number(geo, "aperture_m", where, positive=True)
        return [(n, a) for n in ns]
    sp = _number(geo, "element_spacing_m", where, positive=True)
    return [(n, (n - 1) * sp) for n in ns]


def validate_config(cfg) -> dict:
    """Validate an experiment config document; returns it unchanged.

    Raises :class:`ConfigError` on any unknown key, missing parameter, or
    out-of-range value, before any computation starts.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    top_common = {"experiment", "carrier", "geometry", "seed", "output_dir"}
    if "experiment" not in cfg:
        raise ConfigError("missing required key(s) ['experiment'] in config")
    kind = cfg["experiment"]
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}, expected one of {EXPERIMENTS}")
    carrier = _parse_carrier(cfg)
    if "seed" in cfg:
        _number(cfg, "seed", "config", integer=True, minimum=0)
    geo = cfg.get("geometry")
    if not isinstance(geo, dict):
        raise ConfigError("missing or invalid geometry object")

    if cfg.get("model", "nusw") not in ("nusw", "usw"):
        raise ConfigError("model must be 'nusw' or 'usw'")

    if kind == "spectrum":
        _check_keys(cfg, top_common | {"model"}, {"experiment", "carrier", "geometry"}, "config")
        _check_keys(geo, {"aperture_m", "element_spacing_m", "n_elements", "distances_m", "axis"},
                    {"n_elements", "distances_m"}, "geometry")
        _ula_sizes(geo, "geometry")
        _number_list(geo, "distances_m", "geometry", positive=True)
        _parse_axis(geo)
    elif kind in ("edof-vs-n", "edof2-vs-n"):
        allowed = top_common | {"model", "metrics"}
        if kind == "edof2-vs-n":
            allowed |= {"kernel"}
        _check_keys(cfg, allowed, {"experiment", "carrier", "geometry"}, "config")
        _check_keys(geo, {"aperture_m", "element_spacing_m", "n_elements", "distances_m", "axis"},
                    {"n_elements", "distances_m"}, "geometry")
        _ula_sizes(geo, "geometry")
        _number_list(geo, "distances_m", "geometry", positive=True)
        _parse_axis(geo)
        met = cfg.get("metrics", {})
        _check_keys(met, {"dominance", "rank_tol"}, set(), "metrics")
        if "dominance" in met:
            _number(met, "dominance", "metrics", positive=True)
        if met.get("rank_tol") is not None and "rank_tol" in met:
            _number(met, "rank_tol", "metrics", positive=True)
        if kind == "edof2-vs-n":
            _kernel_options(cfg)
    elif kind == "edof3-vs-snr":
        _check_keys(cfg, top_common | {"model", "metrics", "normalize"},
                    {"experiment", "carrier", "geometry", "metrics"}, "config")
        _check_keys(geo, {"aperture_m", "n_elements", "distances_m", "axis"},
                    {"aperture_m", "n_elements", "distances_m"}, "geometry")
        _number(geo, "aperture_m", "geometry", positive=True)
        _number(geo, "n_elements", "geometry", integer=True, minimum=2)
        _number_list(geo, "distances_m", "geometry", positive=True)
        _parse_axis(geo)
        met = cfg["metrics"]
        if not isinstance(met, dict):
            raise ConfigError("metrics must be an object")
        _check_keys(met, {"snr_db", "delta_step", "dominance"}, {"snr_db"}, "metrics")
        _parse_grid(met, "snr_db", "metrics")
        if "delta_step" in met:
            step = _number(met, "delta_step", "metrics", positive=True)
            if step > 0.05:
                raise ConfigError(f"metrics.delta_step must be <= 0.05, got {step}")
        if "dominance" in met:
            _number(met, "dominance", "metrics", positive=True)
    elif kind == "cap-edof-vs-distance":
        _check_keys(cfg, top_common | {"kernel", "metrics"},
                    {"experiment", "carrier", "geometry"}, "config")
        _check_keys(geo, {"apertures_m", "distances_m"}, {"apertures_m", "distances_m"},
                    "geometry")
        _number_list(geo, "apertures_m", "geometry", positive=True)
        _parse_grid(geo, "distances_m", "geometry")
        _kernel_options(cfg)
        met = cfg.get("metrics", {})
        _check_keys(met, {"dominance"}, set(), "metrics")
    elif kind == "link-sim":
        _check_keys(cfg, top_common | {"link", "normalize"},
                    {"experiment", "carrier", "geometry", "link", "seed"}, "config")
        _check_keys(geo, {"aperture_m", "n_elements", "distance_m", "axis"},
                    {"aperture_m", "n_elements", "distance_m"}, "geometry")
        _number(geo, "aperture_m", "geometry", positive=True)
        _number(geo, "n_elements", "geometry", integer=True, minimum=2)
        _number(geo, "distance_m", "geometry", positive=True)
        _parse_axis(geo)
        link = cfg["link"]
        if not isinstance(link, dict):
            raise ConfigError("link must be an object")
        _check_keys(link, {"active_modes", "snr_db", "n_symbols", "dump_symbols"},
                    {"active_modes", "snr_db", "n_symbols"}, "link")
        _number(link, "active_modes", "link", integer=True, minimum=1)
        _number(link, "snr_db", "link")
        _number(link, "n_symbols", "link", integer=True, minimum=1)
    return cfg


# --- provenance and serialization --------------------------------------------


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return _EPOCH_ISO
    dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _provenance(cfg: dict, seed: int) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "timestamp": _timestamp(),
        "seed": seed,
        "experiment": cfg["experiment"],
    }


def _fmt(x: float) -> str:
    """Canonical number formatting: integral floats lose the trailing .0 and
    everything round-trips bit-exactly through float()."""
    f = float(x)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def emit_plot_data(table: ResultTable, fmt: str, out_dir) -> Path:
    """Write one table as ``<name>.csv`` or ``<name>.json`` under ``out_dir``.

    CSV: '#'-prefixed provenance lines, a header row, '.' decimals, '\\n' line
    endings.  JSON mirrors the columns.  Empty tables are rejected before any
    file is created.
    """
    if not table.rows:
        raise ValueError(f"table {table.name!r} has no rows; nothing to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"{table.name}.csv"
        lines = [f"# {k}={table.provenance[k]}" for k in sorted(table.provenance)]
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_fmt(x) for x in row))
        path.write_text("\n".join(lines) + "\n")
        return path
    if fmt == "json":
        path = out_dir / f"{table.name}.json"
        payload = {
            "name": table.name,
            "provenance": table.provenance,
            "columns": table.columns,
            "rows": [[float(x) for x in row] for row in table.rows],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def parse_result_csv(path) -> ResultTable:
    """Read back a CSV written by :func:`emit_plot_data`; re-emitting the
    parsed table reproduces the file byte for byte."""
    path = Path(path)
    provenance = {}
    columns = None
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                provenance[key] = int(value) if key == "seed" else value
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append([float(x) for x in line.split(",")])
    if columns is None:
        raise ValueError(f"{path} has no header row")
    return ResultTable(name=path.stem, columns=columns, rows=rows,
                       provenance=provenance)


# --- experiment implementations -----------------------------------------------


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _slug(x: float) -> str:
    return f"{x:g}".replace(".", "p").replace("-", "m")


def _ula_pair(n: int, aperture: float, distance: float, axis):
    tx = build_ula(n, aperture, center=(0.0, 0.0, 0.0), axis=axis)
    rx = build_ula(n, aperture, center=(0.0, distance, 0.0), axis=axis)
    return tx, rx


def _spd_channel(model: str, n: int, aperture: float, distance: float, axis,
                 carrier: CarrierConfig):
    tx, rx = _ula_pair(n, aperture, distance, axis)
    build = los_nusw_channel if model == "nusw" else los_usw_channel
    return build(tx, rx, carrier)


def _segment_pair(aperture: float, distance: float):
    tx = continuous_aperture((0.0, 0.0, -aperture / 2), (0.0, 0.0, aperture / 2))
    rx = continuous_aperture((0.0, distance, -aperture / 2), (0.0, distance, aperture / 2))
    return tx, rx


def _run_spectrum(cfg, carrier, prov, threads):
    geo = cfg["geometry"]
    axis = _parse_axis(geo)
    model = cfg.get("model", "nusw")
    sizes = _ula_sizes(geo, "geometry")
    distances = _number_list(geo, "distances_m", "geometry", positive=True)
    cases = [(n, a, d) for (n, a) in sizes for d in distances]

    def one(case):
        n, a, d = case
        h = _spd_channel(model, n, a, d, axis, carrier)
        s = decompose(h, vectors=False).values
        rows = [[i + 1, float(v), float(v / s[0])] for i, v in enumerate(s)]
        return ResultTable(name=f"spectrum_n{n}_d{_slug(d)}",
                           columns=["mode_index", "sigma", "sigma_over_sigma1"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, cases, threads), {}


def _run_edof_vs_n(cfg, carrier, prov, threads):
    geo = cfg["geometry"]
    axis = _parse_axis(geo)
    model = cfg.get("model", "nusw")
    met = cfg.get("metrics", {})
    dominance = met.get("dominance", 0.01)
    rank_tol = met.get("rank_tol")
    sizes = _ula_sizes(geo, "geometry")
    distances = _number_list(geo, "distances_m", "geometry", positive=True)

    def one(d):
        rows = []
        for n, a in sizes:
            s = decompose(_spd_channel(model, n, a, d, axis, carrier), vectors=False)
            rows.append([n, a, dof(s, rank_tol=rank_tol), edof1(s, dominance=dominance),
                         edof1_limit_linear(a, a, carrier.wavelength, d), edof2(s)])
        return ResultTable(name=f"edof_vs_n_d{_slug(d)}",
                           columns=["n_elements", "aperture_m", "dof", "edof1",
                                    "edof1_limit", "edof2"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, distances, threads), {}


def _run_edof2_vs_n(cfg, carrier, prov, threads):
    geo = cfg["geometry"]
    axis = _parse_axis(geo)
    model = cfg.get("model", "nusw")
    ker = _kernel_options(cfg)
    sizes = _ula_sizes(geo, "geometry")
    distances = _number_list(geo, "distances_m", "geometry", positive=True)
    cap_cache = {}
    rules = GaussLegendreRules()

    def cap_ref(aperture, d):
        key = (aperture, d)
        if key not in cap_cache:
            tx, rx = _segment_pair(aperture, d)
            spec = converge_spectrum(tx, rx, carrier, tol=ker["tol"],
                                     start_nodes=ker["start_nodes"],
                                     max_nodes=ker["max_nodes"], rules=rules)
            cap_cache[key] = cap_edof2(spec)
        return cap_cache[key]

    def one(d):
        rows = []
        for n, a in sizes:
            s = decompose(_spd_channel(model, n, a, d, axis, carrier), vectors=False)
            rows.append([n, a, edof2(s), cap_ref(a, d)])
        return ResultTable(name=f"edof2_vs_n_d{_slug(d)}",
                           columns=["n_elements", "aperture_m", "edof2_spd", "edof2_cap"],
                           rows=rows, provenance=prov)

    # cap_cache is shared; populate sequentially for determinism, then map
    for d in distances:
        for _, a in sizes:
            cap_ref(a, d)
    return _map_ordered(one, distances, threads), {}


def _run_edof3_vs_snr(cfg, carrier, prov, threads):
    geo = cfg["geometry"]
    axis = _parse_axis(geo)
    model = cfg.get("model", "nusw")
    normalize = cfg.get("normalize", True)
    met = cfg["metrics"]
    snr_db = _parse_grid(met, "snr_db", "metrics")
    delta = met.get("delta_step", 0.01)
    dominance = met.get("dominance", 0.01)
    n = _number(geo, "n_elements", "geometry", integer=True)
    a = _number(geo, "aperture_m", "geometry", positive=True)
    distances = _number_list(geo, "distances_m", "geometry", positive=True)
    snrs = [10.0 ** (db / 10.0) for db in snr_db]

    def one(d):
        h = _spd_channel(model, n, a, d, axis, carrier)
        if normalize:
            h = frobenius_normalized(h)
        s = decompose(h, vectors=False)
        echo = {"distance_m": d, "n_elements": n, "aperture_m": a,
                "normalize": normalize, "config_hash": prov["config_hash"]}
        values = [edof3_auto(s, snr, delta_step=delta) for snr in snrs]
        rows = [[db, snr, value] for db, snr, value in zip(snr_db, snrs, values)]
        report = metrics_report(s, snrs, config_echo=echo, dominance=dominance,
                                edof3_values=values)
        return (ResultTable(name=f"edof3_vs_snr_d{_slug(d)}",
                            columns=["snr_db", "snr", "edof3"],
                            rows=rows, provenance=prov), d, report)

    results = _map_ordered(one, distances, threads)
    tables = [r[0] for r in results]
    reports = {f"d{_slug(r[1])}": r[2] for r in results}
    return tables, {"metric_reports": reports}


def _run_cap_edof_vs_distance(cfg, carrier, prov, threads):
    geo = cfg["geometry"]
    ker = _kernel_options(cfg)
    met = cfg.get("metrics", {})
    dominance = met.get("dominance", 0.01)
    apertures = _number_list(geo, "apertures_m", "geometry", positive=True)
    distances = _parse_grid(geo, "distances_m", "geometry")
    rules = GaussLegendreRules()

    def one(aperture):
        rd = rayleigh_distance(aperture, carrier.wavelength)
        rows = []
        for d in distances:
            tx, rx = _segment_pair(aperture, d)
            spec = converge_spectrum(tx, rx, carrier, tol=ker["tol"],
                                     start_nodes=ker["start_nodes"],
                                     max_nodes=ker["max_nodes"], rules=rules)
            rows.append([d, cap_edof1(spec, dominance=dominance), cap_edof2(spec), rd])
        return ResultTable(name=f"cap_edof_vs_distance_a{_slug(aperture)}",
                           columns=["distance_m", "cap_edof1", "cap_edof2",
                                    "rayleigh_distance_m"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, apertures, threads), {}


def _run_link_sim(cfg, carrier, prov, seed, out_dir, threads):
    geo = cfg["geometry"]
    axis = _parse_axis(geo)
    normalize = cfg.get("normalize", True)
    link = cfg["link"]
    n = _number(geo, "n_elements", "geometry", integer=True)
    a = _number(geo, "aperture_m", "geometry", positive=True)
    d = _number(geo, "distance_m", "geometry", positive=True)
    k = _number(link, "active_modes", "link", integer=True)
    snr = 10.0 ** (_number(link, "snr_db", "link") / 10.0)
    n_symbols = _number(link, "n_symbols", "link", integer=True)

    h = los_nusw_channel(*_ula_pair(n, a, d, axis), carrier)
    if normalize:
        h = frobenius_normalized(h)
    s = decompose(h, vectors=False).values
    if k > s.size:
        raise ConfigError(f"link.active_modes={k} exceeds the {s.size} channel modes")
    alloc = waterfill(s[:k], budget=snr, noise=1.0)
    powers = np.maximum(alloc.powers, 0.0)
    active = powers > 0
    if not np.all(active):
        # water-filling drops the weakest requested modes at this SNR
        k = int(np.count_nonzero(active))
        powers = powers[:k]
    config = TransmissionConfig(active_modes=k, mode_powers=powers, noise_power=1.0,
                                n_symbols=n_symbols, seed=seed)
    dump_path = Path(out_dir) / "link_symbols.csv" if link.get("dump_symbols") else None
    report = run_link(h, config, dump_path=dump_path)
    rows = [[m + 1, float(powers[m]), float(report.predicted_mode_snr[m]),
             float(report.measured_mode_snr[m]), float(report.mode_mse[m])]
            for m in range(k)]
    table = ResultTable(name=f"link_sim_n{n}_d{_slug(d)}",
                        columns=["mode", "power", "predicted_snr", "measured_snr", "mse"],
                        rows=rows, provenance=prov)
    report_path = save_link_report(report, Path(out_dir) / "link_report.json")
    extra = {"link_report": report_path.name,
             "cross_mode_leakage": report.cross_mode_leakage}
    return [table], extra


def run_experiment(cfg: dict, out_dir=None, seed: int | None = None,
                   threads: int = 1) -> list:
    """Validate ``cfg``, run it, and write one CSV per curve plus a JSON
    summary under ``out_dir``.  Returns the result tables.

    ``seed`` overrides the config seed; ``threads`` parallelizes grid points
    without changing any output byte.
    """
    validate_config(cfg)
    if out_dir is None:
        out_dir = os.environ.get("NFDOF_OUT") or cfg.get("output_dir") or "."
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    carrier = _parse_carrier(cfg)
    if seed is None:
        seed = int(cfg.get("seed", 0))
    prov = _provenance(cfg, seed)
    kind = cfg["experiment"]

    if kind == "spectrum":
        tables, extra = _run_spectrum(cfg, carrier, prov, threads)
    elif kind == "edof-vs-n":
        tables, extra = _run_edof_vs_n(cfg, carrier, prov, threads)
    elif kind == "edof2-vs-n":
        tables, extra = _run_edof2_vs_n(cfg, carrier, prov, threads)
    elif kind == "edof3-vs-snr":
        tables, extra = _run_edof3_vs_snr(cfg, carrier, prov, threads)
    elif kind == "cap-edof-vs-distance":
        tables, extra = _run_cap_edof_vs_distance(cfg, carrier, prov, threads)
    else:
        tables, extra = _run_link_sim(cfg, carrier, prov, seed, out_dir, threads)

    for table in tables:
        emit_plot_data(table, "csv", out_dir)
    summary = {
        "experiment": kind,
        "provenance": prov,
        "config_echo": cfg,
        "tables": [{"name": t.name, "columns": t.columns,
                    "rows": [[float(x) for x in row] for row in t.rows]}
                   for t in tables],
    }
    summary.update(extra)
    summary_path = out_dir / f"{kind.replace('-', '_')}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return tables
