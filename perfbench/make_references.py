"""Regenerate the committed reference outputs under perfbench/reference/.

Usage (from the repository root)::

    python3 perfbench/make_references.py [fig11_des] [horizon_auto]

``fig11_des.json`` holds the Figure 11 grid (14 combos x every scheme,
one window) from the DES; ``horizon_auto.json`` holds the horizon_auto
points (five Table II apps x every scheme, 60 windows) from the *full*
DES without fast-forward, against which the benchmark checks the
``auto`` tier within ``ANALYTIC_RTOL``.  Regenerate only when the
simulator's results change on purpose; the horizon reference takes a
few minutes.
"""

from __future__ import annotations

import json
import sys

import spec

from repro.core import ScenarioEngine, compare_grid
from repro.core.schemes.registry import scheme_names
from repro.workloads import FIG11_COMBOS


def point_record(result) -> dict:
    """The fields the benchmark checks for one grid point."""
    return {
        "apps": list(result.app_ids),
        "scheme": result.scheme,
        "windows": result.windows,
        "total_j": result.energy.total_j,
        "duration_s": result.duration_s,
        "interrupt_count": result.interrupt_count,
        "cpu_wake_count": result.cpu_wake_count,
        "bus_bytes": result.bus_bytes,
    }


def grid_records(app_sets, windows: int) -> list:
    """Every app set under every scheme through the full DES."""
    schemes = scheme_names()
    grid = compare_grid(
        app_sets, schemes, windows=windows, engine=ScenarioEngine(),
        fidelity="des",
    )
    return [
        point_record(grid[tuple(apps)][scheme])
        for apps in app_sets
        for scheme in schemes
    ]


def main(argv) -> int:
    names = argv or ["fig11_des", "horizon_auto"]
    for name in names:
        if name == "fig11_des":
            points = grid_records(FIG11_COMBOS, 1)
        elif name == "horizon_auto":
            points = grid_records(spec.HORIZON_SETS, spec.HORIZON_WINDOWS)
        else:
            print(f"unknown reference {name!r}", file=sys.stderr)
            return 2
        path = spec.REFERENCE_DIR / f"{name}.json"
        path.write_text(
            json.dumps(
                {"regenerate": "python3 perfbench/make_references.py "
                               + name,
                 "points": points},
                indent=1,
            )
            + "\n"
        )
        print(f"wrote {len(points)} points to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
