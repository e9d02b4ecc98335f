"""Re-derive the kernel ladder's start fraction ``nfdof.kernel._START``.

    python tools/ladder_sweep.py

For 20 near-field pairs of equal segments facing each other (5 m at 3-50 m,
1.37 m at 0.5-8 m, 2 m at 1-8 m) and the far-field pairs of the traffic
configs (``configs/cap_edof_vs_distance.json``: 0.5 m and 1.37 m at 25
distances from 10 to 500 m; ``configs/edof2_vs_n_growing.json``: the
0.075-1.37 m apertures of 16-275 elements at 5 mm, at 15, 50 and 150 m),
all at a 1 cm wavelength, it solves the kernel at every rung of
``nfdof.kernel._rung`` from 0.55 to 1.25 times the quadrature cliff
pi * (path spread) / wavelength, never below the ladder floor and on to the
first pair of rungs that agree, and prints, with the ladder's own stop rule
(``nfdof.kernel._rung_change``: every eigenvalue of the lower rung against
the matching one of the upper, relative to the largest):

* the change between each pair of successive rungs;
* per geometry, the first rung that agrees with the next to 1e-6, and
  its ratio to the cliff; the smallest ratio over the geometries whose first
  agreeing rung lies above the floor is the largest safe start fraction;
* per geometry, the rung the ladder starts at under ``_START``, the change
  between the rung below it and the start, and the closest change of any
  pair of rungs below the start.  A start is safe when the first is at
  least 1e-6: a climb from one rung lower then ends at the same rung
  with the same values.  The second is the margin of the rungs below.

Exits 1 when ``_START`` lies above the smallest ratio or a rung below the
start agrees with it.  ``tests/test_tools.py`` runs it, so tier-1 fails when
a change to the rungs, the rules or the stop rule makes ``_START`` unsafe.

Runs from this checkout's ``src/``; needs numpy only.  About 4 s on one
core.
"""

import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WAVELENGTH = 0.01
TOL = 1e-6
"The ``tol`` of every traffic ladder."
NEAR_FIELD = ([(5.0, d) for d in (3.0, 4.0, 5.0, 8.0, 10.0, 12.0, 20.0, 30.0, 50.0)]
              + [(1.37, d) for d in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)]
              + [(2.0, d) for d in (1.0, 2.0, 4.0, 6.0, 8.0)])
"(aperture, distance) in meters."


def traffic_geometries() -> list:
    """The (aperture, distance) pairs of the two far-field kernel configs."""
    from nfdof.experiments import _expanded
    from nfdof.spec import Grid, validate_config

    def spec(name):
        return validate_config(json.loads((REPO / "configs" / name).read_text()))

    def grid(values):
        return _expanded(values) if isinstance(values, Grid) else values

    cap, growing = spec("cap_edof_vs_distance.json"), spec("edof2_vs_n_growing.json")
    return ([(a, d) for _, a in cap.tables for d in grid(cap.distances)]
            + [(a, d) for _, a in growing.sizes for d in grid(growing.distances)])


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from nfdof import kernel
    from nfdof.geometry import continuous_aperture
    from nfdof.spec import LADDER_FLOOR

    def values(m):
        return kernel.cap_spectrum(kernel.build_kernel(tx, rx, WAVELENGTH, m)) ** 2

    ratios, below, edges = [], [], []
    for aperture, d in NEAR_FIELD + traffic_geometries():
        tx = continuous_aperture((0.0, 0.0, -aperture / 2), (0.0, 0.0, aperture / 2))
        rx = continuous_aperture((0.0, d, -aperture / 2), (0.0, d, aperture / 2))
        cliff = math.pi * kernel._path_spread(tx.segment, rx.segment) / WAVELENGTH
        k = 0
        while kernel._rung(k + 1) <= max(LADDER_FLOOR, 0.55 * cliff):
            k += 1
        rungs, lam, changes = [kernel._rung(k)], [values(kernel._rung(k))], []
        while rungs[-1] <= 1.25 * cliff or min(changes, default=math.inf) >= TOL:
            k += 1
            rungs.append(kernel._rung(k))
            lam.append(values(rungs[-1]))
            changes.append(kernel._rung_change(*lam[-2:]))
        start = next(m for m in rungs + [math.inf] if m >= kernel._START * cliff)
        print(f"{aperture:g} m at {d:g} m: cliff {cliff:.1f} nodes, start {start}")
        first, closest, edge = None, math.inf, None
        for m, nxt, change in zip(rungs, rungs[1:], changes):
            print(f"  {m:5d} -> {nxt:5d}: {change:.3e}  ({m / cliff:.3f} x cliff)")
            if first is None and change < TOL:
                first = m
            if nxt < start:
                closest = min(closest, change)
            elif nxt == start:
                edge = change
        print(f"  first agreeing rung {first} = {first / cliff:.3f} x cliff")
        if first > LADDER_FLOOR:
            ratios.append((first / cliff, aperture, d, first))
        if edge is not None:
            print(f"  the rung below the start agrees with it to {edge:.3e}")
            edges.append((edge, aperture, d))
        if closest < math.inf:
            print(f"  closest change of a pair below the start: {closest:.3e}")
            below.append((closest, aperture, d))
    r, aperture, d, m = min(ratios)
    print(f"smallest first agreeing rung / cliff over {len(ratios)} geometries: "
          f"{r:.3f} ({aperture:g} m at {d:g} m, {m} nodes); _START = {kernel._START}")
    for label, changes in (("a pair of rungs below the start", below),
                           ("the rung below the start and the start", edges)):
        change, aperture, d = min(changes)
        print(f"closest change of {label}: {change:.3e} ({aperture:g} m at {d:g} m)")
    return 0 if kernel._START <= r and min(edges)[0] >= TOL else 1


if __name__ == "__main__":
    sys.exit(main())
