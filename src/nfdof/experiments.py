"""Config-driven experiment runner with plot-ready CSV output.

Each experiment is described by a single JSON document, which only
:func:`validate_config` reads: it returns the :class:`ExperimentSpec` that the
experiment's runner reads instead.  Physical parameters (the carrier
wavelength and the geometry) are always explicit; unknown keys are rejected.
The config is the whole input, seed included: given the same config, outputs
are byte-identical across runs and across thread counts.  Grid points are
pure functions collected in grid order, floats are serialized canonically,
and the provenance timestamp is taken from SOURCE_DATE_EPOCH (fixed epoch
when unset) rather than the wall clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (facing_ula_column, frobenius_normalized, los_nusw_channel,
                      los_usw_channel)
from .errors import ConfigError
from .geometry import build_ula, continuous_aperture, rayleigh_distance
from .kernel import LADDER_FLOOR, cap_edof1, cap_edof2, converge_spectrum
from .linksim import TransmissionConfig, run_link, save_link_report
from .metrics import (dof, edof1, edof1_limit_linear, edof2, edof3_auto,
                      metrics_report, waterfill)
from .modes import decompose, toeplitz_spectrum


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
        cells = [[repr(float(x)) for x in row] for row in self.rows]
        for row in cells:
            for text in row:
                if text in _NON_FINITE:
                    raise FloatingPointError(f"cannot write the non-finite value {text}")
        return cells


# --- config parsing ----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Every value a runner reads, parsed and range-checked from one config.

    ``names`` lists the output tables in the order the runner writes them;
    ``timestamp`` is the provenance time read from SOURCE_DATE_EPOCH.
    Fields an experiment does not use keep their defaults, which are also
    the defaults of the optional config keys of the same name.
    """

    experiment: str
    wavelength: float
    seed: int
    names: tuple
    timestamp: str
    model: str = "nusw"
    normalize: bool = True
    sizes: tuple = ()  # (n_elements, aperture_m) pairs
    distances: tuple = ()
    apertures: tuple = ()
    snr_db: tuple = ()
    delta_step: float = 0.01
    dominance: float = 0.01
    tol: float = 1e-6
    max_nodes: int = 4096
    active_modes: int = 1
    n_symbols: int = 1


_TOP_KEYS = {"experiment", "carrier", "geometry", "seed"}
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


# SNRs in dB within this bound have a positive, finite linear value
_SNR_DB_LIMIT = {"minimum": -3000.0, "maximum": 3000.0}

# lengths in meters within this range keep squared gains and their fourth
# powers inside float64's normal range
_LENGTH = {"positive": True, "minimum": 1e-15, "maximum": 1e15}

MAX_COUNT = 1_000_000
"""Largest accepted n_elements, kernel node count, link.n_symbols and grid
count.  It lies above every size the toolkit is run at (2048-element arrays,
4096-node kernels, 10**5 link symbols) and rejects absurd sizes before any
allocation; a size below it can still exceed the memory of the machine."""


def _parse_wavelength(cfg: dict) -> float:
    car = _object(cfg, "carrier")
    _check_keys(car, {"wavelength_m"}, {"wavelength_m"}, "carrier")
    return _number(car["wavelength_m"], "carrier.wavelength_m", **_LENGTH)


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
        a = _number(geo["aperture_m"], "geometry.aperture_m", **_LENGTH)
        return tuple((n, a) for n in ns)
    sp = _number(geo["element_spacing_m"], "geometry.element_spacing_m", **_LENGTH)
    return tuple((n, _number((n - 1) * sp, f"aperture of {n} elements (m)", **_LENGTH))
                 for n in ns)


def _array_options(cfg: dict) -> dict:
    """The optional model and normalize keys, where present."""
    out = {}
    if "model" in cfg:
        if cfg["model"] not in ("nusw", "usw"):
            raise ConfigError("model must be 'nusw' or 'usw'")
        out["model"] = cfg["model"]
    if "normalize" in cfg:
        if not isinstance(cfg["normalize"], bool):
            raise ConfigError(f"normalize must be true or false, got {cfg['normalize']!r}")
        out["normalize"] = cfg["normalize"]
    return out


def _metrics(cfg: dict, allowed: set, required: set = frozenset()) -> dict:
    met = _object(cfg, "metrics")
    _check_keys(met, allowed, required, "metrics")
    out = _given(met, "metrics", dominance={"positive": True, "below": 1.0},
                 delta_step={"positive": True, "maximum": 0.05})
    if "snr_db" in met:
        out["snr_db"] = _grid(met, "snr_db", "metrics", **_SNR_DB_LIMIT)
    return out


def _kernel(cfg: dict) -> dict:
    ker = _object(cfg, "kernel")
    _check_keys(ker, {"tol", "max_nodes"}, set(), "kernel")
    # the ladder must climb at least one rung above its floor
    return _given(ker, "kernel", tol={"positive": True},
                  max_nodes={"integer": True, "minimum": LADDER_FLOOR + 1, "maximum": MAX_COUNT})


def _ula_sweep(cfg: dict, geo: dict, extra: set) -> dict:
    """An element-count sweep over distances.  The metrics and kernel objects
    are read only where ``extra`` allows them."""
    _check_keys(cfg, _TOP_KEYS | {"model"} | extra, _TOP_REQUIRED, "config")
    _check_keys(geo, {"aperture_m", "element_spacing_m", "n_elements", "distances_m"},
                {"n_elements", "distances_m"}, "geometry")
    return {"sizes": _ula_sizes(geo), **_array_options(cfg),
            "distances": _number_list(geo, "distances_m", "geometry", **_LENGTH),
            **_metrics(cfg, {"dominance"}), **_kernel(cfg)}


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
    _check_keys(geo, {"aperture_m", "n_elements", "distances_m"},
                {"aperture_m", "n_elements", "distances_m"}, "geometry")
    out = {"sizes": _ula_sizes(geo, sweep=False), **_array_options(cfg),
           "distances": _number_list(geo, "distances_m", "geometry", **_LENGTH),
           **_metrics(cfg, {"snr_db", "delta_step", "dominance"}, {"snr_db"})}
    out["names"] = tuple(f"edof3_vs_snr_d{_slug(d)}" for d in out["distances"])
    return out


def _parse_cap_edof_vs_distance(cfg: dict, geo: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS | {"kernel", "metrics"}, _TOP_REQUIRED, "config")
    _check_keys(geo, {"apertures_m", "distances_m"}, {"apertures_m", "distances_m"},
                "geometry")
    out = {"apertures": _number_list(geo, "apertures_m", "geometry", **_LENGTH),
           "distances": _grid(geo, "distances_m", "geometry", **_LENGTH),
           **_kernel(cfg), **_metrics(cfg, {"dominance"})}
    out["names"] = tuple(f"cap_edof_vs_distance_a{_slug(a)}" for a in out["apertures"])
    return out


def _parse_link_sim(cfg: dict, geo: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS | {"link", "normalize"},
                _TOP_REQUIRED | {"link", "seed"}, "config")
    _check_keys(geo, {"aperture_m", "n_elements", "distance_m"},
                {"aperture_m", "n_elements", "distance_m"}, "geometry")
    link = _object(cfg, "link")
    _check_keys(link, {"active_modes", "snr_db", "n_symbols"},
                {"active_modes", "snr_db", "n_symbols"}, "link")
    sizes = _ula_sizes(geo, sweep=False)
    n = sizes[0][0]
    d = _number(geo["distance_m"], "geometry.distance_m", **_LENGTH)
    return {"sizes": sizes, "distances": (d,), **_array_options(cfg),
            # an n-element pair has n channel modes
            **_given(link, "link", active_modes={"integer": True, "minimum": 1, "maximum": n},
                     n_symbols={"integer": True, "minimum": 1, "maximum": MAX_COUNT}),
            "snr_db": (_number(link["snr_db"], "link.snr_db", **_SNR_DB_LIMIT),),
            "names": (f"link_sim_n{n}_d{_slug(d)}",)}


def validate_config(cfg) -> ExperimentSpec:
    """Parse an experiment config document into the spec its runner reads.

    Raises :class:`ConfigError` on any unknown key, missing parameter,
    out-of-range value, pair of output tables that would share a file name
    or malformed SOURCE_DATE_EPOCH, before any computation starts.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("experiment")
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}, expected one of {tuple(EXPERIMENTS)}")
    fields = EXPERIMENTS[kind][0](cfg, _object(cfg, "geometry"))
    spec = ExperimentSpec(experiment=kind, wavelength=_parse_wavelength(cfg),
                          seed=_number(cfg.get("seed", 0), "seed", integer=True, minimum=0),
                          timestamp=_timestamp(), **fields)
    shared = sorted({name for name in spec.names if spec.names.count(name) > 1})
    if shared:
        raise ConfigError(f"grid points that format alike would share output table(s) {shared}")
    return spec


# --- provenance and serialization --------------------------------------------


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _timestamp() -> str:
    """SOURCE_DATE_EPOCH as a UTC time, the epoch itself when it is unset."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        if not (epoch.isascii() and epoch.isdigit()):
            raise ValueError
        dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ConfigError("SOURCE_DATE_EPOCH must be a non-negative integer number of "
                          f"seconds before the year 10000, got {epoch!r}") from None
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _provenance(cfg: dict, spec: ExperimentSpec) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "timestamp": spec.timestamp,
        "seed": spec.seed,
        "experiment": cfg["experiment"],
    }


def _fmt(text: str) -> str:
    """The CSV form of a cell's ``float.__repr__`` text: an integral value
    below 1e16, which repr writes with a trailing .0, loses it (-0.0 reads
    0), and every cell round-trips bit-exactly through float()."""
    if text.endswith(".0"):
        return "0" if text == "-0.0" else text[:-2]
    return text


def emit_plot_data(table: ResultTable, out_dir) -> Path:
    """Write one table as ``<name>.csv`` under ``out_dir``: '#'-prefixed
    provenance lines, a header row, '.' decimals, '\\n' line endings.  Empty
    tables are rejected before any file is created.
    """
    if not table.rows:
        raise ValueError(f"table {table.name!r} has no rows; nothing to write")
    lines = [f"# {k}={table.provenance[k]}" for k in sorted(table.provenance)]
    lines.append(",".join(table.columns))
    lines += [",".join(map(_fmt, row)) for row in table.cells]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{table.name}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _dumps(value, depth: int) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, indented to sit
    ``depth`` levels deep in an enclosing document."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + "  " * depth)


def _joined(open_: str, items: list, close: str, depth: int) -> str:
    """The rendered ``items`` between ``open_`` and ``close``, laid out as
    ``json.dumps(..., indent=2)`` lays out a container ``depth`` levels deep."""
    if not items:
        return open_ + close
    pad = "\n" + "  " * (depth + 1)
    return open_ + pad + ("," + pad).join(items) + "\n" + "  " * depth + close


def _summary_text(summary: dict) -> str:
    """``json.dumps(summary, indent=2, allow_nan=False)`` of the summary with
    its ``tables`` entry, a list of ResultTables, written as
    ``{"name", "columns", "rows"}`` objects whose rows hold each cell as a
    float: the rows are joined from :attr:`ResultTable.cells`, and every
    other value goes through json.dumps."""
    def table(t):
        rows = [_joined("[", row, "]", 4) for row in t.cells]
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


def _slug(x: float) -> str:
    return f"{x:g}".replace(".", "p").replace("-", "m")


def _spd_channel(spec: ExperimentSpec, n: int, aperture: float, distance: float):
    """The channel matrix of the facing ULAs at ``distance``."""
    tx = build_ula(n, aperture, center=(0.0, 0.0, 0.0))
    rx = build_ula(n, aperture, center=(0.0, distance, 0.0))
    build = los_nusw_channel if spec.model == "nusw" else los_usw_channel
    return build(tx, rx, spec.wavelength)


def _converge(spec: ExperimentSpec, aperture: float, distance: float):
    tx = continuous_aperture((0.0, 0.0, -aperture / 2), (0.0, 0.0, aperture / 2))
    rx = continuous_aperture((0.0, distance, -aperture / 2), (0.0, distance, aperture / 2))
    return converge_spectrum(tx, rx, spec.wavelength, tol=spec.tol, max_nodes=spec.max_nodes)


def _run_spectrum(spec, prov, threads):
    cases = [(n, a, d) for n, a in spec.sizes for d in spec.distances]

    def one(item):
        name, (n, a, d) = item
        s = toeplitz_spectrum(facing_ula_column(spec.model, n, a, d, spec.wavelength)).values
        rows = [[i, v, r] for i, v, r in zip(range(1, s.size + 1), s.tolist(),
                                             (s / s[0]).tolist())]
        return ResultTable(name=name, columns=["mode_index", "sigma", "sigma_over_sigma1"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, cases)), threads), {}


def _run_edof_vs_n(spec, prov, threads):
    def one(item):
        name, d = item
        rows = []
        for n, a in spec.sizes:
            s = toeplitz_spectrum(facing_ula_column(spec.model, n, a, d, spec.wavelength))
            rows.append([n, a, dof(s),
                         edof1(s, dominance=spec.dominance),
                         edof1_limit_linear(a, a, spec.wavelength, d), edof2(s)])
        return ResultTable(name=name,
                           columns=["n_elements", "aperture_m", "dof", "edof1",
                                    "edof1_limit", "edof2"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, spec.distances)), threads), {}


def _run_edof2_vs_n(spec, prov, threads):
    def one(item):
        name, d = item
        cap_ref = {a: cap_edof2(_converge(spec, a, d))
                   for a in dict.fromkeys(a for _, a in spec.sizes)}
        rows = []
        for n, a in spec.sizes:
            s = toeplitz_spectrum(facing_ula_column(spec.model, n, a, d, spec.wavelength))
            rows.append([n, a, edof2(s), cap_ref[a]])
        return ResultTable(name=name,
                           columns=["n_elements", "aperture_m", "edof2_spd", "edof2_cap"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, spec.distances)), threads), {}


def _run_edof3_vs_snr(spec, prov, threads):
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


def _run_cap_edof_vs_distance(spec, prov, threads):
    def one(item):
        name, aperture = item
        rd = rayleigh_distance(aperture, spec.wavelength)
        rows = []
        for d in spec.distances:
            s = _converge(spec, aperture, d)
            rows.append([d, cap_edof1(s, dominance=spec.dominance), cap_edof2(s), rd])
        return ResultTable(name=name,
                           columns=["distance_m", "cap_edof1", "cap_edof2",
                                    "rayleigh_distance_m"],
                           rows=rows, provenance=prov)

    return _map_ordered(one, list(zip(spec.names, spec.apertures)), threads), {}


# measured/predicted SNR stays within 1e-4 of its value at SNR 1 up to a
# predicted 1e25 (N = 16 at 15 m, 2 modes at equal SNR, 4000 symbols: 2.6e-5
# at seed 1, 7.6e-5 at worst over seeds 1-10), then round-off bends it: 2.5e-4
# off at 1e26, 5e-4 at 9e26, 3 % at 9e28.  Low SNRs are measured well until the
# summed error powers, about n_symbols / SNR, near the float64 maximum: outputs
# stay finite down to 1e-304 at 4000 symbols and 1e-302 at MAX_COUNT symbols,
# and turn to inf or nan one decade lower.  1e-300 keeps a factor of 100 at
# MAX_COUNT.
_LINK_SNR_RANGE = (1e-300, 1e25)


def _run_link_sim(spec, prov, threads):
    ((n, a),), (d,), (snr_db,) = spec.sizes, spec.distances, spec.snr_db
    h = _spd_channel(spec, n, a, d)
    if spec.normalize:
        h = frobenius_normalized(h)
    s = decompose(h, vectors=False).values
    alloc = waterfill(s[:spec.active_modes], budget=10.0 ** (snr_db / 10.0), noise=1.0)
    # water-filling drops the weakest requested modes at this SNR
    powers = alloc.powers[alloc.powers > 0]
    k = powers.size
    snr = powers * s[:k] ** 2
    if not _LINK_SNR_RANGE[0] <= snr.min() <= snr.max() <= _LINK_SNR_RANGE[1]:
        raise FloatingPointError(f"predicted per-mode SNRs {snr.min():.3g} to {snr.max():.3g}"
                                 f" leave {list(_LINK_SNR_RANGE)}, the range link-sim measures")
    config = TransmissionConfig(active_modes=k, mode_powers=powers, noise_power=1.0,
                                n_symbols=spec.n_symbols, seed=spec.seed)
    report = run_link(h, config)
    rows = [[m + 1, float(powers[m]), float(report.predicted_mode_snr[m]),
             float(report.measured_mode_snr[m]), float(report.mode_mse[m])]
            for m in range(k)]
    table = ResultTable(name=spec.names[0],
                        columns=["mode", "power", "predicted_snr", "measured_snr", "mse"],
                        rows=rows, provenance=prov)
    return [table], {"link_report": "link_report.json",
                     "cross_mode_leakage": report.cross_mode_leakage, "report": report}


# name: (parse(cfg, geometry) -> spec fields, run(spec, prov, threads) -> tables, extra)
EXPERIMENTS = {
    "spectrum": (_parse_spectrum, _run_spectrum),
    "edof-vs-n": (_parse_edof_vs_n, _run_edof_vs_n),
    "edof2-vs-n": (_parse_edof2_vs_n, _run_edof2_vs_n),
    "edof3-vs-snr": (_parse_edof3_vs_snr, _run_edof3_vs_snr),
    "cap-edof-vs-distance": (_parse_cap_edof_vs_distance, _run_cap_edof_vs_distance),
    "link-sim": (_parse_link_sim, _run_link_sim),
}


def run_experiment(cfg: dict, out_dir=".", threads: int = 1) -> list:
    """Validate ``cfg``, run it, and write one CSV per curve plus a JSON
    summary under ``out_dir``.  Returns the result tables.  A NaN or infinite
    output value raises FloatingPointError before any file is written.

    ``threads`` parallelizes grid points without changing any output byte.
    """
    spec = validate_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = _provenance(cfg, spec)
    tables, extra = EXPERIMENTS[spec.experiment][1](spec, prov, threads)
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
