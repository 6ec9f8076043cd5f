"""What each workload runs, shared by the workload runners and the reference maker.

Importing this module puts the checkout's ``src/`` tree first on
``sys.path``; it imports nothing from ``repro`` itself, so the
benchmark's set-up timing starts before the library is loaded.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK_DIR = ROOT / ".perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOADS = ("fig11_des", "horizon_auto", "serve_mixed")

#: horizon_auto: Table II single-app sets answered at fidelity="auto".
HORIZON_SETS = (("A2",), ("A3",), ("A7",), ("A9",), ("A10",))
HORIZON_WINDOWS = 60

#: serve_mixed read universe: every non-empty subset of {A3, A9, A10}
#: under every scheme at windows 1..8 (more points than the server's
#: 256-entry memory LRU, so reads hit both cache tiers).
SERVE_SETS = (
    ("A3",),
    ("A9",),
    ("A10",),
    ("A3", "A9"),
    ("A3", "A10"),
    ("A9", "A10"),
    ("A3", "A9", "A10"),
)
SERVE_WINDOWS = tuple(range(1, 9))
#: Never-seen single points (writes): cheap sets, windows 1..2, with an
#: explicit batch size, which no prefilled point carries.
SERVE_NEW_SETS = (("A3",), ("A10",), ("A3", "A10"))
SERVE_NEW_WINDOWS = (1, 2)
SERVE_NEW_BATCH_SIZES = tuple(range(1, 101))
#: Never-seen grid cells sent on both connections at once (coalescing):
#: A10 at windows beyond the prefill, half the schemes per cell.  The 32
#: cells last 3 200 jobs per connection; each costs 20-40 ms of DES, so
#: the few a run draws do not set its latency tail.
SERVE_COALESCE_SET = ("A10",)
SERVE_COALESCE_WINDOWS = tuple(range(9, 25))


def layout_ok() -> bool:
    """Whether the checkout holds the library this benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()
