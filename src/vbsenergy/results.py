"""Deterministic CSV rendering of result rows.

A row is a tuple in the order of its header: COLUMNS for every command
but compare, which writes its own columns. Floats are formatted with
repr-stable '%.12g', missing values are empty fields, and rows always
end with a bare newline, so equal inputs give byte-equal files on any
platform.
"""
from __future__ import annotations

import csv

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


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_rows(stream, rows, header=COLUMNS) -> None:
    """Write a header line and rows as CSV with LF line endings."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_cell(v) for v in row] for row in rows)
