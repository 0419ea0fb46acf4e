"""Result persistence helpers for the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Schema tag of the normalized machine-readable bench output.  Bump
#: on breaking changes; CI uploads ``results/BENCH_*.json`` so the
#: perf trajectory is comparable run-over-run.
BENCH_SCHEMA = "repro-bench/v1"


def save_result(name: str, text: str) -> None:
    """Print a regenerated table/figure and persist it to results/.

    Smoke runs (``MP_BENCH_SMOKE=1``) write ``<name>.smoke.txt``
    (gitignored) so they never overwrite a committed full-size table.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    smoke = os.environ.get("MP_BENCH_SMOKE", "") == "1"
    suffix = ".smoke.txt" if smoke else ".txt"
    (RESULTS_DIR / f"{name}{suffix}").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


def save_json(
    name: str,
    metrics: dict[str, object],
    *,
    params: dict[str, object] | None = None,
) -> Path:
    """Persist normalized machine-readable bench output.

    Writes ``results/BENCH_<name>.json`` with a fixed envelope::

        {"schema": "repro-bench/v1", "bench": <name>,
         "smoke": <bool>, "params": {...}, "metrics": {...}}

    ``metrics`` holds the numbers a trend dashboard charts (seconds,
    ratios, counts); ``params`` the shape/grid/rep knobs that make two
    runs comparable.  ``smoke`` is read from ``MP_BENCH_SMOKE`` so
    downstream tooling can keep CI toy shapes out of the trend lines.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    doc = {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "smoke": os.environ.get("MP_BENCH_SMOKE", "") == "1",
        "platform": platform.platform(),
        "params": dict(params or {}),
        "metrics": dict(metrics),
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"Wrote {path}")
    return path
