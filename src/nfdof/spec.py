"""Experiment config parsing, without numpy.

Each experiment is described by a single JSON document, which only
:func:`validate_config` reads: it returns the :class:`ExperimentSpec` that the
experiment's runner reads instead.  Physical parameters (the carrier
wavelength and the geometry) are always explicit; unknown keys are rejected.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    """A checked, unexpanded grid: np.geomspace or np.linspace of (start, stop, count)."""

    start: float
    stop: float
    count: int
    spacing: str


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
    distances: tuple | Grid = ()
    apertures: tuple = ()
    snr_db: tuple | Grid = ()
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

LADDER_FLOOR = 16
"Node count of the lowest rung of every kernel ladder."


def _parse_wavelength(cfg: dict) -> float:
    car = _object(cfg, "carrier")
    _check_keys(car, {"wavelength_m"}, {"wavelength_m"}, "carrier")
    return _number(car["wavelength_m"], "carrier.wavelength_m", **_LENGTH)


def _grid(obj, key, where, **rules) -> tuple | Grid:
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
    if spacing not in ("log", "linear"):
        raise ConfigError(f"{where}.spacing must be 'log' or 'linear'")
    if spacing == "log" and (start <= 0 or stop <= 0):
        raise ConfigError(f"{where}: log spacing needs positive endpoints")
    return Grid(start, stop, count, spacing)


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


def _parse_edof3_vs_snr(cfg: dict, geo: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS | {"model", "metrics", "normalize"},
                _TOP_REQUIRED | {"metrics"}, "config")
    _check_keys(geo, {"aperture_m", "n_elements", "distances_m"},
                {"aperture_m", "n_elements", "distances_m"}, "geometry")
    return {"sizes": _ula_sizes(geo, sweep=False), **_array_options(cfg),
            "distances": _number_list(geo, "distances_m", "geometry", **_LENGTH),
            **_metrics(cfg, {"snr_db", "delta_step", "dominance"}, {"snr_db"})}


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


# experiment name: parse(cfg, geometry) -> spec fields; without "names",
# one table per distance named <experiment>_d<distance>
PARSERS = {
    "spectrum": _parse_spectrum,
    "edof-vs-n": partial(_ula_sweep, extra={"metrics"}),
    "edof2-vs-n": partial(_ula_sweep, extra={"kernel"}),
    "edof3-vs-snr": _parse_edof3_vs_snr,
    "cap-edof-vs-distance": _parse_cap_edof_vs_distance,
    "link-sim": _parse_link_sim,
}


def validate_config(cfg) -> ExperimentSpec:
    """Parse an experiment config document into the spec its runner reads.

    Raises :class:`ConfigError` on any unknown key, missing parameter,
    out-of-range value, pair of output tables that would share a file name
    or malformed SOURCE_DATE_EPOCH, before any computation starts.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("experiment")
    if not isinstance(kind, str) or kind not in PARSERS:
        raise ConfigError(f"unknown experiment {kind!r}, expected one of {tuple(PARSERS)}")
    fields = PARSERS[kind](cfg, _object(cfg, "geometry"))
    if "names" not in fields:
        fields["names"] = tuple(f"{kind.replace('-', '_')}_d{_slug(d)}"
                                for d in fields["distances"])
    spec = ExperimentSpec(experiment=kind, wavelength=_parse_wavelength(cfg),
                          seed=_number(cfg.get("seed", 0), "seed", integer=True, minimum=0),
                          timestamp=_timestamp(), **fields)
    shared = sorted({name for name in spec.names if spec.names.count(name) > 1})
    if shared:
        raise ConfigError(f"grid points that format alike would share output table(s) {shared}")
    return spec


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


def _slug(x: float) -> str:
    return f"{x:g}".replace(".", "p").replace("-", "m")
