"""The CSV writer as it was before tables were formatted column by
column: csv.writer with LF line endings and one format_cell call per
cell. Kept verbatim as the reference for vbsenergy.cli.write_rows."""
import csv

from vbsenergy.cli import COLUMNS


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
