"""The floor table and runner skeleton shared by the ``run_*_bench.py`` benches.

Every bench appends one dated entry to the ``BENCH_motion.json``
trajectory and, under ``--guard``, fails when that entry breaks a stored
floor or ceiling.  This module owns the parts they share:

* :data:`FLOORS` — one row per key of the trajectory's ``floors`` object:
  the bench that owns it, whether it is a floor (``min``) or a ceiling
  (``max``), the value a fresh file is seeded with, and where the entry
  keeps the measured value.  The file's values are authoritative; the
  seeds only fill keys a file lacks.
* :data:`INVARIANTS` — rows whose limit is fixed here, not in the file: a
  numba entry must have run numba, a tune resume pass must evaluate
  nothing, a serve run must see result acks.
* :func:`check` / :func:`report` — the one check-and-report loop.
* :func:`main` — ``--output``/``--preset``/``--guard``, the entry stamp
  (date, preset, python, machine fingerprint) and the append.

A bench keeps only its presets, its measurement, its own flags and its
summary print.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_motion.json"


def _always(entry: dict) -> bool:
    return True


@dataclass(frozen=True)
class Row:
    """One guarded metric of one bench's entries."""

    key: str
    #: The ``benchmark`` field of the entries this row guards.
    bench: str
    #: ``min`` (value >= limit), ``max`` (value <= limit) or ``equal``.
    kind: str
    #: Seed of a floor row; the fixed limit of an invariant.
    default: object
    #: The measured value of an entry, ``None`` when it was not measured.
    extract: Callable[[dict], object]
    #: Whether the row guards this entry at all.
    applies: Callable[[dict], bool] = _always


def _result(entry: dict, resolution: str) -> dict:
    """The per-resolution result dict of a motion or pipeline entry."""
    for result in entry.get("results", []):
        if result.get("resolution") == resolution:
            return result
    return {}


def _numba_at(resolution: str) -> Callable[[dict], bool]:
    # Accel floors guard only --kernel-backend numba entries, and each only
    # at a resolution the preset measured.
    return lambda entry: (
        entry.get("kernel_backend") == "numba" and bool(_result(entry, resolution))
    )


def _worst_stream_energy(entry: dict) -> Optional[float]:
    values = [stream.get("energy_per_frame_mj") for stream in entry.get("per_stream", [])]
    return None if not values or None in values else max(values)


MOTION = "motion_estimation"

FLOORS = (
    # TSS on per-step pixel-major neighbourhoods vs the scalar oracle at
    # 720p: measured 33-45x.
    Row("min_tss_speedup_720p", MOTION, "min", 20.0,
        lambda e: _result(e, "720p").get("speedup")),
    # ES vs the scalar oracle's ES on the 360x640 crop of the 720p
    # sequence (perf.ES_ORACLE_CROP): measured 23-43x.
    Row("min_es_speedup_vs_scalar_720p", MOTION, "min", 15.0,
        lambda e: _result(e, "720p").get("es_speedup_vs_scalar")),
    # The same ratio at the tracking pool's 192x108 frames, where ES is
    # dispatch-bound: measured 22.7-32.4x.
    Row("min_es_speedup_vs_scalar_192x108", MOTION, "min", 15.0,
        lambda e: (e.get("es_small_frame") or {}).get("es_speedup_vs_scalar")),
    # The compiled backend must beat the numpy ES by this factor.
    Row("min_numba_es_speedup_vs_numpy_720p", MOTION, "min", 2.0,
        lambda e: _result(e, "720p").get("es_speedup_vs_numpy"), _numba_at("720p")),
    Row("min_numba_es_speedup_vs_numpy_1080p", MOTION, "min", 2.0,
        lambda e: _result(e, "1080p").get("es_speedup_vs_numpy"), _numba_at("1080p")),
    # Steady-state denoise blend vs the scalar reference, same run: ~9x.
    Row("min_pipeline_blend_speedup_vs_reference_720p", "pipeline", "min", 6.0,
        lambda e: (_result(e, "720p").get("blend_vs_reference") or {}).get("speedup")),
    # Peak tracemalloc churn of one steady-state 720p E-frame submit():
    # ~8 MB, so 16 MB catches one extra frame-sized per-frame allocation.
    Row("max_pipeline_alloc_mb_per_eframe_720p", "pipeline", "max", 16.0,
        lambda e: _result(e, "720p").get("e_frame_alloc_mb")),
    # Modeled energy of the worst stream.  Deterministic for a given spec
    # and workload, so a breach is a scheduler or cost-model regression
    # (I-frame batching stopped amortising weight traffic: the sharded ci
    # preset prices 14.13 mJ/frame batched vs 14.24 unbatched), not noise.
    Row("max_stream_energy_per_frame_mj", "multi_stream", "max", 14.18,
        _worst_stream_energy),
    Row("max_serve_p99_latency_ms", "serve", "max", 1500.0,
        lambda e: e.get("latency_p99_ms")),
    # The ci tuning space must keep a real accuracy/energy trade-off.
    Row("min_tune_frontier_points", "tune", "min", 3,
        lambda e: e.get("frontier_points")),
    # Best modeled energy at >= seed accuracy on the ci space (measured
    # 15.17 mJ/frame, the EW-2 baseline itself).
    Row("max_tune_best_energy_per_frame_mj", "tune", "max", 15.5,
        lambda e: e.get("best_energy_per_frame_mj")),
)

INVARIANTS = (
    # A silent degrade to numpy would green-light the accel floors while
    # measuring the wrong backend.
    Row("kernel_backend_active", MOTION, "equal", "numba",
        lambda e: e.get("kernel_backend_active"),
        lambda e: e.get("kernel_backend") == "numba"),
    # The disk store must make a resumed sweep free.
    Row("resume_reevaluated", "tune", "equal", 0, lambda e: e.get("resume_reevaluated")),
    Row("result_acks", "serve", "min", 1, lambda e: e.get("result_acks")),
)


def floor(key: str) -> Row:
    """The :data:`FLOORS` row of ``key``."""
    return next(row for row in FLOORS if row.key == key)


def passes(kind: str, value, limit) -> bool:
    if kind == "min":
        return value >= limit
    if kind == "max":
        return value <= limit
    return value == limit


def guarded(entry: dict, floors: Dict[str, object]) -> List[tuple]:
    """``(row, limit)`` for every row that guards ``entry``."""
    bench = entry.get("benchmark")
    rows = [(row, floors[row.key]) for row in FLOORS if row.bench == bench]
    rows += [(row, row.default) for row in INVARIANTS if row.bench == bench]
    return [(row, limit) for row, limit in rows if row.applies(entry)]


def check(entry: dict, floors: Dict[str, object]) -> List[str]:
    """Violations of ``entry`` against its bench's rows (empty = healthy)."""
    violations = []
    for row, limit in guarded(entry, floors):
        value = row.extract(entry)
        if value is None:
            violations.append(f"{row.key}: not measured")
        elif not passes(row.kind, value, limit):
            violations.append(f"{row.key}: measured {_show(value)}, {row.kind} {limit}")
    return violations


def report(entry: dict, floors: Dict[str, object], guard: bool) -> int:
    """Print the violations (stderr) or the OK line; the exit status."""
    violations = check(entry, floors)
    for violation in violations:
        print(f"FLOOR VIOLATION — {violation}", file=sys.stderr)
    if violations:
        return 1 if guard else 0
    print(f"{entry['benchmark']} floors OK: " + ", ".join(
        f"{row.key}={_show(row.extract(entry))} ({row.kind} {limit})"
        for row, limit in guarded(entry, floors)
    ))
    return 0


def _show(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def load(path: Path) -> dict:
    """The trajectory at ``path`` (a fresh one when absent), floors seeded."""
    if path.exists():
        document = json.loads(path.read_text())
    else:
        document = {"schema": 2, "floors": {}, "entries": []}
    for row in FLOORS:
        document["floors"].setdefault(row.key, row.default)
    return document


def main(
    description: str,
    presets: dict,
    measure: Callable[[argparse.Namespace], dict],
    summarize: Callable[[dict], None],
    add_options: Callable[[argparse.ArgumentParser], None],
) -> int:
    """Parse the flags, measure, append the stamped entry, summarize, check."""
    parser = argparse.ArgumentParser(
        description=description, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--output", type=Path, default=TRAJECTORY,
        help="trajectory JSON to append to (default: repo-root BENCH_motion.json)",
    )
    parser.add_argument(
        "--preset", choices=sorted(presets), default="full",
        help="workload preset (default: full)",
    )
    parser.add_argument(
        "--guard", action="store_true",
        help="exit 1 when the entry breaks a floor stored in the trajectory",
    )
    add_options(parser)
    args = parser.parse_args()

    entry = measure(args)
    sys.path.append(str(REPO_ROOT / "perfbench"))
    from fingerprint import fingerprint

    entry["date"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    entry["preset"] = args.preset
    entry["python"] = platform.python_version()
    entry["machine"] = fingerprint()
    document = load(args.output)
    document["entries"].append(entry)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"appended {entry['benchmark']} entry {len(document['entries'])} to {args.output}")
    summarize(entry)
    return report(entry, document["floors"], args.guard)
