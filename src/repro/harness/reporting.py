"""Rendering experiment results: aligned ASCII tables and CSV files.

The CLI (``python -m repro.harness.cli <id>``) prints each reproduced
figure with these helpers, so its output can be compared side by side
with the paper's plots (docs/EXPERIMENTS.md records the comparison).
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Optional, Sequence

from repro.harness.experiments import ExperimentResult


def _render_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)           # inf / nan (e.g. mains battery)
        if value == int(value) and abs(value) < 1e6:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Dict], columns: Optional[List[str]] = None,
                 ) -> str:
    """Render dict-rows as an aligned, pipe-separated ASCII table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_render_cell(row.get(col, "")) for col in columns]
                for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    def _line(cells: Sequence[str]) -> str:
        return " | ".join(c.rjust(w) for c, w in zip(cells, widths))
    header = _line(columns)
    sep = "-+-".join("-" * w for w in widths)
    return "\n".join([header, sep] + [_line(r) for r in rendered])


def format_experiment(result: ExperimentResult,
                      columns: Optional[List[str]] = None) -> str:
    """Title + parameter summary + rows table, ready to print."""
    buf = io.StringIO()
    buf.write(f"== {result.experiment_id}: {result.title} ==\n")
    params = ", ".join(f"{k}={v}" for k, v in result.parameters.items())
    buf.write(f"   ({params})\n")
    # Std-dev columns are noise in the console rendering; CSV keeps them.
    if columns is None and result.rows:
        columns = [c for c in result.rows[0] if not c.endswith("_std")]
    buf.write(format_table(result.rows, columns))
    return buf.getvalue()


def to_csv(result: ExperimentResult, path: str) -> None:
    """Write all rows (including std columns) to ``path``."""
    if not result.rows:
        raise ValueError(f"experiment {result.experiment_id} has no rows")
    columns: List[str] = []
    for row in result.rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        writer.writerows(result.rows)


def format_engine_stats(stats, jobs: int = 1,
                        cached: bool = False) -> str:
    """One-line cache-hit/worker report for a sweep.

    ``stats`` is an :class:`~repro.harness.parallel.EngineStats`; the
    CLI prints this after every experiment so reruns make the cache's
    contribution visible (``... 120 cells: 90 cached, 30 executed``).
    """
    total = stats.total
    if total == 0:
        return "engine: no scenario runs"
    parts = [f"engine: {total} scenario run{'s' if total != 1 else ''}"]
    if cached:
        parts.append(f"{stats.cache_hits} from cache")
        parts.append(f"{stats.executed} executed")
    else:
        parts.append(f"{stats.executed} executed (cache disabled)")
    workers = (f"{jobs} worker processes" if jobs > 1
               else "in-process, serial")
    return f"{parts[0]}: " + ", ".join(parts[1:]) + f" [{workers}]"


def depletion_timeline(deaths: Sequence[tuple], n_nodes: int,
                       horizon_s: float, buckets: int = 10) -> str:
    """Survivors-over-time table from ``(death_time, node_id)`` records.

    The energy experiments' network-lifetime view: how many radios were
    still up at each slice of the measurement window.
    """
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    times = sorted(t for t, _ in deaths)
    rows = []
    for i in range(1, buckets + 1):
        t = horizon_s * i / buckets
        dead = sum(1 for d in times if d <= t)
        alive = n_nodes - dead
        rows.append({"t [s]": t, "survivors": alive,
                     "alive [%]": 100.0 * alive / n_nodes})
    return format_table(rows)


def _key_tuple(keys) -> tuple:
    """Normalise one column name or a sequence of them to a tuple."""
    return (keys,) if isinstance(keys, str) else tuple(keys)


def pivot_table(rows: Sequence[Dict], row_keys, col_keys,
                value_key: str) -> str:
    """Pivot dict-rows into a grid: row keys x col keys -> value.

    The multi-key generalisation every pivot rendering goes through:
    ``row_keys``/``col_keys`` are each one column name or a sequence
    of them; each distinct row-key combination becomes one line (one
    label column per key) and each distinct col-key combination one
    column, sorted by value.  Combinations absent from ``rows`` render
    as ``nan``.  Declarations name theirs in a
    :class:`~repro.study.spec.PivotSpec`.
    """
    row_keys = _key_tuple(row_keys)
    col_keys = _key_tuple(col_keys)
    if not row_keys or not col_keys:
        raise ValueError("pivot_table needs at least one row and col key")
    rows = list(rows)
    if rows:
        known = sorted({k for row in rows for k in row})
        missing = [k for k in (*row_keys, *col_keys, value_key)
                   if k not in known]
        if missing:
            raise KeyError(f"pivot keys {missing} not found in rows; "
                           f"known columns: {known}")
    row_vals = sorted({tuple(r[k] for k in row_keys) for r in rows})
    col_vals = sorted({tuple(r[k] for k in col_keys) for r in rows})
    lookup = {(tuple(r[k] for k in row_keys),
               tuple(r[k] for k in col_keys)): r[value_key] for r in rows}
    def _col_label(cv: tuple) -> str:
        return ",".join(f"{k}={_render_cell(v)}"
                        for k, v in zip(col_keys, cv))
    table = []
    for rv in row_vals:
        line = dict(zip(row_keys, rv))
        for cv in col_vals:
            line[_col_label(cv)] = lookup.get((rv, cv), float("nan"))
        table.append(line)
    return format_table(table)

