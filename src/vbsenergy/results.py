"""Tabular result rows with deterministic CSV rendering.

Every command that emits data uses the same column set so outputs can
be concatenated and diffed. Floats are formatted with repr-stable
'%.12g', missing values are empty fields, and rows always end with a
bare newline, so equal inputs give byte-equal files on any platform.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields

COLUMNS = (
    "scenario_id",
    "command",
    "rate_bps",
    "n_cores",
    "rho",
    "mean_queue_len",
    "mean_delay_s",
    "avg_power_w",
    "cost_z",
    "source",
    "seed",
    "status",
)


@dataclass(frozen=True)
class ResultRow:
    scenario_id: str
    command: str
    rate_bps: float | None = None
    n_cores: int | None = None
    rho: float | None = None
    mean_queue_len: float | None = None
    mean_delay_s: float | None = None
    avg_power_w: float | None = None
    cost_z: float | None = None
    source: str = "analytic"
    seed: int | None = None
    status: str = "ok"

    def values(self) -> list[str]:
        return [format_cell(getattr(self, f.name)) for f in fields(self)]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_rows(stream, rows, header=COLUMNS) -> None:
    """Write a header line and rows as CSV with LF line endings."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row.values() if isinstance(row, ResultRow) else
                        [format_cell(v) for v in row])
