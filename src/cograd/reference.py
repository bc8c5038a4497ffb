"""Best-known objectives for standard benchmark graphs.

These constants label benchmark output with a relative error; they are never
used as training signal. Cut values are the widely cited best-known results
for the Gset MaxCut instances, alongside the sizes reported by several
published solvers, kept here as regression anchors for ``relative_error``.
"""

from __future__ import annotations

__all__ = ["GSET_BEST_KNOWN", "PUBLISHED_CUTS", "best_known"]

# best-known MaxCut values (breakout local search)
GSET_BEST_KNOWN: dict[str, float] = {
    "G14": 3064.0,
    "G15": 3050.0,
    "G22": 13359.0,
    "G49": 6000.0,
    "G50": 5880.0,
    "G55": 10294.0,
    "G70": 9541.0,
}

# cut sizes reported by published solvers; None marks a value the source
# never reported for that instance
PUBLISHED_CUTS: dict[str, dict[str, float | None]] = {
    "G14": {"dsdp": 2922.0, "khlwg": 3061.0, "run-csp": 2943.0, "pi-gnn": 3026.0, "gnn-dfl": 3060.0},
    "G15": {"dsdp": 2938.0, "khlwg": 3050.0, "run-csp": 2928.0, "pi-gnn": 2990.0, "gnn-dfl": 3038.0},
    "G22": {"dsdp": 12960.0, "khlwg": 13359.0, "run-csp": 13028.0, "pi-gnn": 13181.0, "gnn-dfl": 13333.0},
    "G49": {"dsdp": 6000.0, "khlwg": 6000.0, "run-csp": 6000.0, "pi-gnn": 5918.0, "gnn-dfl": 6000.0},
    "G50": {"dsdp": 5880.0, "khlwg": 5880.0, "run-csp": 5880.0, "pi-gnn": 5820.0, "gnn-dfl": 5860.0},
    "G55": {"dsdp": 9960.0, "khlwg": 10236.0, "run-csp": 10116.0, "pi-gnn": 10138.0, "gnn-dfl": 10162.0},
    "G70": {"dsdp": 9456.0, "khlwg": 9458.0, "run-csp": None, "pi-gnn": 9421.0, "gnn-dfl": 9499.0},
}


def best_known(instance: str) -> float | None:
    """Best-known objective for a named instance, None when unknown."""
    return GSET_BEST_KNOWN.get(instance)
