"""Config-driven experiment runner with plot-ready CSV output.

Each experiment is described by a single JSON document, which only
:func:`validate_config` reads: it returns the :class:`ExperimentSpec` that the
experiment's runner reads instead.  Physical parameters (carrier and geometry)
are always explicit; unknown keys are rejected.  Given
the same config and seed, outputs are byte-identical across runs and across
thread counts: grid points are pure functions collected in grid order, floats
are serialized canonically, and the provenance timestamp is taken from
SOURCE_DATE_EPOCH (fixed epoch when unset) rather than the wall clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channel import frobenius_normalized, los_nusw_channel, los_usw_channel
from .errors import ConfigError
from .geometry import (SPEED_OF_LIGHT, UNIT_TOL, CarrierConfig, build_ula, continuous_aperture,
                       rayleigh_distance)
from .kernel import GaussLegendreRules, cap_edof1, cap_edof2, converge_spectrum
from .linksim import TransmissionConfig, run_link, save_link_report
from .metrics import (dof, edof1, edof1_limit_linear, edof2, edof3_auto,
                      metrics_report, waterfill)
from .modes import decompose

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


# --- config parsing ----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Every value a runner reads, parsed and range-checked from one config.

    ``names`` lists the output tables in the order the runner writes them.
    Fields an experiment does not use keep their defaults, which are also
    the defaults of the optional config keys of the same name.
    """

    experiment: str
    carrier: CarrierConfig
    seed: int
    names: tuple
    output_dir: str | None = None
    model: str = "nusw"
    axis: tuple = (0.0, 0.0, 1.0)
    normalize: bool = True
    sizes: tuple = ()  # (n_elements, aperture_m) pairs
    distances: tuple = ()
    apertures: tuple = ()
    snr_db: tuple = ()
    delta_step: float = 0.01
    dominance: float = 0.01
    rank_tol: float | None = None
    tol: float = 1e-6
    start_nodes: int = 64
    max_nodes: int = 4096
    active_modes: int = 1
    n_symbols: int = 1
    dump_symbols: bool = False


_TOP_KEYS = {"experiment", "carrier", "geometry", "seed", "output_dir"}
_TOP_REQUIRED = {"experiment", "carrier", "geometry"}


def _check_keys(obj: dict, allowed: set, required: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)} in {where}")


def _object(obj: dict, key: str) -> dict:
    """The sub-object under ``key``, empty when the key is absent."""
    val = obj.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError(f"{key} must be an object")
    return val


def _number(val, name, *, positive=False, integer=False, minimum=None, maximum=None,
            below=None):
    # exact int/float comparison: NaN, infinities and integers beyond the
    # float range all fail it
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {val!r}")
    if integer and not float(val).is_integer():
        raise ConfigError(f"{name} must be an integer, got {val!r}")
    if positive and not val > 0:
        raise ConfigError(f"{name} must be positive, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {val!r}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {val!r}")
    if below is not None and not val < below:
        raise ConfigError(f"{name} must be < {below}, got {val!r}")
    return int(val) if integer else float(val)


def _given(obj: dict, where: str, **rules) -> dict:
    """The keys of ``obj`` that ``rules`` names, each read by :func:`_number`
    under its rule."""
    return {key: _number(obj[key], f"{where}.{key}", **rule)
            for key, rule in rules.items() if key in obj}


def _number_list(obj, key, where, **rules) -> tuple:
    val = obj[key]
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{where}.{key} must be a nonempty list")
    return tuple(_number(v, f"{where}.{key}[{i}]", **rules) for i, v in enumerate(val))


def _flag(obj, key, where) -> bool:
    val = obj[key]
    if not isinstance(val, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {val!r}")
    return val


# SNRs in dB within this bound have a positive, finite linear value
_SNR_DB_LIMIT = {"minimum": -3000.0, "maximum": 3000.0}

MAX_COUNT = 1_000_000
"""Largest accepted n_elements, kernel node count, link.n_symbols and grid
count.  It lies above every size the toolkit is run at (2048-element arrays,
4096-node kernels, 10**5 link symbols) and rejects absurd sizes before any
allocation; a size below it can still exceed the memory of the machine."""


def _parse_carrier(cfg: dict) -> CarrierConfig:
    car = _object(cfg, "carrier")
    _check_keys(car, {"frequency_hz", "wavelength_m"}, set(), "carrier")
    if not car:
        raise ConfigError("carrier needs frequency_hz or wavelength_m")
    freq, lam = (_number(car[k], f"carrier.{k}", positive=True) if k in car else None
                 for k in ("frequency_hz", "wavelength_m"))
    try:  # the same quotients as CarrierConfig.from_frequency/from_wavelength
        carrier = CarrierConfig(frequency=freq or SPEED_OF_LIGHT / lam,
                                wavelength=lam or SPEED_OF_LIGHT / freq)
    except ValueError as exc:
        raise ConfigError(f"invalid carrier: {exc}") from exc
    if not math.isfinite(carrier.wavelength):
        raise ConfigError(f"invalid carrier: frequency {freq} Hz is too low")
    return carrier


def _grid(obj, key, where, **rules) -> tuple:
    """A distance/SNR grid: either an explicit list or {start, stop, count,
    spacing} with log spacing by default."""
    val = obj[key]
    if isinstance(val, list):
        return _number_list(obj, key, where, **rules)
    if not isinstance(val, dict):
        raise ConfigError(f"{where}.{key} must be a list or a grid object")
    where = f"{where}.{key}"
    _check_keys(val, {"start", "stop", "count", "spacing"}, {"start", "stop", "count"}, where)
    start = _number(val["start"], f"{where}.start", **rules)
    stop = _number(val["stop"], f"{where}.stop", **rules)
    count = _number(val["count"], f"{where}.count", integer=True, minimum=2,
                    maximum=MAX_COUNT)
    spacing = val.get("spacing", "log")
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError(f"{where}: log spacing needs positive endpoints")
        return tuple(float(x) for x in np.geomspace(start, stop, count))
    if spacing == "linear":
        return tuple(float(x) for x in np.linspace(start, stop, count))
    raise ConfigError(f"{where}.spacing must be 'log' or 'linear'")


def _ula_sizes(geo: dict, sweep: bool = True) -> tuple:
    """Element counts with their apertures.  Exactly one of aperture_m (fixed
    aperture, density sweep) or element_spacing_m (fixed pitch, growing array)
    must be given.  ``n_elements`` is a list for a sweep, else one number."""
    has_ap = "aperture_m" in geo
    if has_ap == ("element_spacing_m" in geo):
        raise ConfigError("geometry needs exactly one of aperture_m or element_spacing_m")
    rule = {"integer": True, "minimum": 2, "maximum": MAX_COUNT}
    ns = (_number_list(geo, "n_elements", "geometry", **rule) if sweep
          else (_number(geo["n_elements"], "geometry.n_elements", **rule),))
    if has_ap:
        a = _number(geo["aperture_m"], "geometry.aperture_m", positive=True)
        return tuple((n, a) for n in ns)
    sp = _number(geo["element_spacing_m"], "geometry.element_spacing_m", positive=True)
    return tuple((n, (n - 1) * sp) for n in ns)


def _array_options(cfg: dict, geo: dict) -> dict:
    """The optional model, axis and normalize keys, where present."""
    out = {}
    if "model" in cfg:
        if cfg["model"] not in ("nusw", "usw"):
            raise ConfigError("model must be 'nusw' or 'usw'")
        out["model"] = cfg["model"]
    if "axis" in geo:
        axis = _number_list(geo, "axis", "geometry")
        if len(axis) != 3:
            raise ConfigError("geometry.axis must be a 3-element list")
        if abs(np.linalg.norm(axis) - 1.0) > UNIT_TOL:
            raise ConfigError(f"geometry.axis must have unit norm, got {list(axis)}")
        out["axis"] = axis
    if "normalize" in cfg:
        out["normalize"] = _flag(cfg, "normalize", "config")
    return out


def _metrics(cfg: dict, allowed: set, required: set = frozenset()) -> dict:
    met = _object(cfg, "metrics")
    _check_keys(met, allowed, required, "metrics")
    out = _given(met, "metrics", dominance={"positive": True, "below": 1.0},
                 delta_step={"positive": True, "maximum": 0.05})
    if met.get("rank_tol") is not None:
        out["rank_tol"] = _number(met["rank_tol"], "metrics.rank_tol", positive=True)
    if "snr_db" in met:
        out["snr_db"] = _grid(met, "snr_db", "metrics", **_SNR_DB_LIMIT)
    return out


def _kernel(cfg: dict) -> dict:
    ker = _object(cfg, "kernel")
    _check_keys(ker, {"tol", "start_nodes", "max_nodes"}, set(), "kernel")
    nodes = {"integer": True, "minimum": 8, "maximum": MAX_COUNT}
    return _given(ker, "kernel", tol={"positive": True}, start_nodes=nodes, max_nodes=nodes)


def _ula_sweep(cfg: dict, geo: dict, extra: set) -> dict:
    """An element-count sweep over distances.  The metrics and kernel objects
    are read only where ``extra`` allows them."""
    _check_keys(cfg, _TOP_KEYS | {"model"} | extra, _TOP_REQUIRED, "config")
    _check_keys(geo, {"aperture_m", "element_spacing_m", "n_elements", "distances_m", "axis"},
                {"n_elements", "distances_m"}, "geometry")
    return {"sizes": _ula_sizes(geo), **_array_options(cfg, geo),
            "distances": _number_list(geo, "distances_m", "geometry", positive=True),
            **_metrics(cfg, {"dominance", "rank_tol"}), **_kernel(cfg)}


def _parse_spectrum(cfg: dict, geo: dict) -> dict:
    out = _ula_sweep(cfg, geo, set())
    return {**out, "names": tuple(f"spectrum_n{n}_d{_slug(d)}" for n, _ in out["sizes"]
                                  for d in out["distances"])}


def _parse_edof_vs_n(cfg: dict, geo: dict) -> dict:
    out = _ula_sweep(cfg, geo, {"metrics"})
    return {**out, "names": tuple(f"edof_vs_n_d{_slug(d)}" for d in out["distances"])}


def _parse_edof2_vs_n(cfg: dict, geo: dict) -> dict:
    out = _ula_sweep(cfg, geo, {"kernel"})
    return {**out, "names": tuple(f"edof2_vs_n_d{_slug(d)}" for d in out["distances"])}


def _parse_edof3_vs_snr(cfg: dict, geo: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS | {"model", "metrics", "normalize"},
                _TOP_REQUIRED | {"metrics"}, "config")
    _check_keys(geo, {"aperture_m", "n_elements", "distances_m", "axis"},
                {"aperture_m", "n_elements", "distances_m"}, "geometry")
    out = {"sizes": _ula_sizes(geo, sweep=False), **_array_options(cfg, geo),
           "distances": _number_list(geo, "distances_m", "geometry", positive=True),
           **_metrics(cfg, {"snr_db", "delta_step", "dominance"}, {"snr_db"})}
    out["names"] = tuple(f"edof3_vs_snr_d{_slug(d)}" for d in out["distances"])
    return out


def _parse_cap_edof_vs_distance(cfg: dict, geo: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS | {"kernel", "metrics"}, _TOP_REQUIRED, "config")
    _check_keys(geo, {"apertures_m", "distances_m"}, {"apertures_m", "distances_m"},
                "geometry")
    out = {"apertures": _number_list(geo, "apertures_m", "geometry", positive=True),
           "distances": _grid(geo, "distances_m", "geometry", positive=True),
           **_kernel(cfg), **_metrics(cfg, {"dominance"})}
    out["names"] = tuple(f"cap_edof_vs_distance_a{_slug(a)}" for a in out["apertures"])
    return out


def _parse_link_sim(cfg: dict, geo: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS | {"link", "normalize"},
                _TOP_REQUIRED | {"link", "seed"}, "config")
    _check_keys(geo, {"aperture_m", "n_elements", "distance_m", "axis"},
                {"aperture_m", "n_elements", "distance_m"}, "geometry")
    link = _object(cfg, "link")
    _check_keys(link, {"active_modes", "snr_db", "n_symbols", "dump_symbols"},
                {"active_modes", "snr_db", "n_symbols"}, "link")
    sizes = _ula_sizes(geo, sweep=False)
    n = sizes[0][0]
    d = _number(geo["distance_m"], "geometry.distance_m", positive=True)
    out = {"sizes": sizes, "distances": (d,), **_array_options(cfg, geo),
           # an n-element pair has n channel modes
           **_given(link, "link", active_modes={"integer": True, "minimum": 1, "maximum": n},
                    n_symbols={"integer": True, "minimum": 1, "maximum": MAX_COUNT}),
           "snr_db": (_number(link["snr_db"], "link.snr_db", **_SNR_DB_LIMIT),),
           "names": (f"link_sim_n{n}_d{_slug(d)}",)}
    if "dump_symbols" in link:
        out["dump_symbols"] = _flag(link, "dump_symbols", "link")
    return out


def validate_config(cfg, seed: int | None = None) -> ExperimentSpec:
    """Parse an experiment config document into the spec its runner reads.

    ``seed`` overrides the config seed and obeys the same rule (a
    non-negative integer).  Raises :class:`ConfigError` on any unknown key,
    missing parameter, out-of-range value or pair of output tables that would
    share a file name, before any computation starts.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("experiment")
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}, expected one of {tuple(EXPERIMENTS)}")
    fields = EXPERIMENTS[kind][0](cfg, _object(cfg, "geometry"))
    seed = cfg.get("seed", 0) if seed is None else seed
    output_dir = cfg.get("output_dir")
    if output_dir is not None and (not isinstance(output_dir, str) or "\0" in output_dir):
        raise ConfigError(f"output_dir must be a path string, got {output_dir!r}")
    spec = ExperimentSpec(experiment=kind, carrier=_parse_carrier(cfg),
                          seed=_number(seed, "seed", integer=True, minimum=0),
                          output_dir=output_dir, **fields)
    if spec.start_nodes >= spec.max_nodes:
        raise ConfigError(f"kernel.start_nodes={spec.start_nodes} leaves no room to climb "
                          f"below kernel.max_nodes={spec.max_nodes}")
    # both arrays are centred on the y-axis: along it they overlap, and
    # elements may coincide, unless every distance exceeds the aperture
    aperture = max((a for _, a in spec.sizes), default=0.0)
    if abs(abs(spec.axis[1]) - 1.0) <= UNIT_TOL and min(spec.distances) <= aperture:
        raise ConfigError("geometry.axis lies along the link, so every distance must exceed "
                          f"the aperture ({aperture} m)")
    shared = sorted({name for name in spec.names if spec.names.count(name) > 1})
    if shared:
        raise ConfigError(f"grid points that format alike would share output table(s) {shared}")
    return spec


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


def emit_plot_data(table: ResultTable, out_dir) -> Path:
    """Write one table as ``<name>.csv`` under ``out_dir``: '#'-prefixed
    provenance lines, a header row, '.' decimals, '\\n' line endings.  Empty
    tables are rejected before any file is created.
    """
    if not table.rows:
        raise ValueError(f"table {table.name!r} has no rows; nothing to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{table.name}.csv"
    lines = [f"# {k}={table.provenance[k]}" for k in sorted(table.provenance)]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


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


def _spd_channel(spec: ExperimentSpec, n: int, aperture: float, distance: float):
    tx = build_ula(n, aperture, center=(0.0, 0.0, 0.0), axis=spec.axis)
    rx = build_ula(n, aperture, center=(0.0, distance, 0.0), axis=spec.axis)
    build = los_nusw_channel if spec.model == "nusw" else los_usw_channel
    return build(tx, rx, spec.carrier)


def _converge(spec: ExperimentSpec, aperture: float, distance: float, rules):
    tx = continuous_aperture((0.0, 0.0, -aperture / 2), (0.0, 0.0, aperture / 2))
    rx = continuous_aperture((0.0, distance, -aperture / 2), (0.0, distance, aperture / 2))
    return converge_spectrum(tx, rx, spec.carrier, tol=spec.tol,
                             start_nodes=spec.start_nodes, max_nodes=spec.max_nodes,
                             rules=rules)


def _run_spectrum(spec, prov, threads, out_dir):
    cases = [(n, a, d) for n, a in spec.sizes for d in spec.distances]

    def one(item):
        name, (n, a, d) = item
        s = decompose(_spd_channel(spec, n, a, d), vectors=False).values
        rows = [[i + 1, float(v), float(v / s[0])] for i, v in enumerate(s)]
        return ResultTable(name=name, columns=["mode_index", "sigma", "sigma_over_sigma1"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, cases)), threads), {}


def _run_edof_vs_n(spec, prov, threads, out_dir):
    def one(item):
        name, d = item
        rows = []
        for n, a in spec.sizes:
            s = decompose(_spd_channel(spec, n, a, d), vectors=False)
            rows.append([n, a, dof(s, rank_tol=spec.rank_tol),
                         edof1(s, dominance=spec.dominance),
                         edof1_limit_linear(a, a, spec.carrier.wavelength, d), edof2(s)])
        return ResultTable(name=name,
                           columns=["n_elements", "aperture_m", "dof", "edof1",
                                    "edof1_limit", "edof2"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, spec.distances)), threads), {}


def _run_edof2_vs_n(spec, prov, threads, out_dir):
    rules = GaussLegendreRules()
    # one converged reference per (aperture, d), computed sequentially in grid
    # order for determinism before the grid is mapped
    cap_ref = {}
    for d in spec.distances:
        for _, a in spec.sizes:
            if (a, d) not in cap_ref:
                cap_ref[a, d] = cap_edof2(_converge(spec, a, d, rules))

    def one(item):
        name, d = item
        rows = []
        for n, a in spec.sizes:
            s = decompose(_spd_channel(spec, n, a, d), vectors=False)
            rows.append([n, a, edof2(s), cap_ref[a, d]])
        return ResultTable(name=name,
                           columns=["n_elements", "aperture_m", "edof2_spd", "edof2_cap"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, spec.distances)), threads), {}


def _run_edof3_vs_snr(spec, prov, threads, out_dir):
    ((n, a),) = spec.sizes
    snrs = [10.0 ** (db / 10.0) for db in spec.snr_db]

    def one(item):
        name, d = item
        h = _spd_channel(spec, n, a, d)
        if spec.normalize:
            h = frobenius_normalized(h)
        s = decompose(h, vectors=False)
        echo = {"distance_m": d, "n_elements": n, "aperture_m": a,
                "normalize": spec.normalize, "config_hash": prov["config_hash"]}
        values = [edof3_auto(s, snr, delta_step=spec.delta_step) for snr in snrs]
        rows = [[db, snr, value] for db, snr, value in zip(spec.snr_db, snrs, values)]
        report = metrics_report(s, snrs, config_echo=echo, dominance=spec.dominance,
                                edof3_values=values)
        return (ResultTable(name=name, columns=["snr_db", "snr", "edof3"],
                            rows=rows, provenance=prov), f"d{_slug(d)}", report)

    results = _map_ordered(one, list(zip(spec.names, spec.distances)), threads)
    return [r[0] for r in results], {"metric_reports": {r[1]: r[2] for r in results}}


def _run_cap_edof_vs_distance(spec, prov, threads, out_dir):
    rules = GaussLegendreRules()

    def one(item):
        name, aperture = item
        rd = rayleigh_distance(aperture, spec.carrier.wavelength)
        rows = []
        for d in spec.distances:
            s = _converge(spec, aperture, d, rules)
            rows.append([d, cap_edof1(s, dominance=spec.dominance), cap_edof2(s), rd])
        return ResultTable(name=name,
                           columns=["distance_m", "cap_edof1", "cap_edof2",
                                    "rayleigh_distance_m"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, spec.apertures)), threads), {}


def _run_link_sim(spec, prov, threads, out_dir):
    ((n, a),), (d,), (snr_db,) = spec.sizes, spec.distances, spec.snr_db
    h = _spd_channel(spec, n, a, d)
    if spec.normalize:
        h = frobenius_normalized(h)
    s = decompose(h, vectors=False).values
    alloc = waterfill(s[:spec.active_modes], budget=10.0 ** (snr_db / 10.0), noise=1.0)
    # water-filling drops the weakest requested modes at this SNR
    powers = alloc.powers[alloc.powers > 0]
    k = powers.size
    config = TransmissionConfig(active_modes=k, mode_powers=powers, noise_power=1.0,
                                n_symbols=spec.n_symbols, seed=spec.seed)
    dump_path = out_dir / "link_symbols.csv" if spec.dump_symbols else None
    report = run_link(h, config, dump_path=dump_path)
    rows = [[m + 1, float(powers[m]), float(report.predicted_mode_snr[m]),
             float(report.measured_mode_snr[m]), float(report.mode_mse[m])]
            for m in range(k)]
    table = ResultTable(name=spec.names[0],
                        columns=["mode", "power", "predicted_snr", "measured_snr", "mse"],
                        rows=rows, provenance=prov)
    report_path = save_link_report(report, out_dir / "link_report.json")
    return [table], {"link_report": report_path.name,
                     "cross_mode_leakage": report.cross_mode_leakage}


# name: (parse(cfg, geometry) -> spec fields, run(spec, prov, threads, out_dir) -> tables, extra)
EXPERIMENTS = {
    "spectrum": (_parse_spectrum, _run_spectrum),
    "edof-vs-n": (_parse_edof_vs_n, _run_edof_vs_n),
    "edof2-vs-n": (_parse_edof2_vs_n, _run_edof2_vs_n),
    "edof3-vs-snr": (_parse_edof3_vs_snr, _run_edof3_vs_snr),
    "cap-edof-vs-distance": (_parse_cap_edof_vs_distance, _run_cap_edof_vs_distance),
    "link-sim": (_parse_link_sim, _run_link_sim),
}


def run_experiment(cfg: dict, out_dir=None, seed: int | None = None,
                   threads: int = 1) -> list:
    """Validate ``cfg``, run it, and write one CSV per curve plus a JSON
    summary under ``out_dir``.  Returns the result tables.

    ``seed`` overrides the config seed; ``threads`` parallelizes grid points
    without changing any output byte.
    """
    spec = validate_config(cfg, seed)
    if out_dir is None:
        out_dir = os.environ.get("NFDOF_OUT") or spec.output_dir or "."
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = _provenance(cfg, spec.seed)
    tables, extra = EXPERIMENTS[spec.experiment][1](spec, prov, threads, out_dir)
    for table in tables:
        emit_plot_data(table, out_dir)
    summary = {
        "experiment": spec.experiment,
        "provenance": prov,
        "config_echo": cfg,
        "tables": [{"name": t.name, "columns": t.columns,
                    "rows": [[float(x) for x in row] for row in t.rows]}
                   for t in tables],
    }
    summary.update(extra)
    summary_path = out_dir / f"{spec.experiment.replace('-', '_')}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return tables
