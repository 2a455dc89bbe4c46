"""The CSV table format of every output and contract file.

An optional `# key=value key=value ...` line ending in LF, then a header row
and one row per record, comma-separated and ending in CRLF.  Floats (cells
and metadata values) are written as `%.<digits>g`, anything else with `str`.
Nothing is quoted, so a name or cell may not hold a comma, a double quote or
a line break, and a metadata key or value no whitespace (nor a key an '=').
"""

from __future__ import annotations

import re

import numpy as np

_UNQUOTABLE = re.compile(r'[,"\r\n]')


def _cell(value, fmt: str) -> str:
    text = fmt % value if isinstance(value, float) else str(value)
    if _UNQUOTABLE.search(text):
        raise ValueError(f"cell {text!r} holds a comma, quote or line break")
    return text


def write_table(path, header, rows, digits: int, meta: dict = None) -> None:
    """Write `rows` (cell sequences or a 2-D float array) under `header`."""
    fmt = f"%.{digits}g"
    header = [_cell(name, fmt) for name in header]
    if header[0].startswith("#"):
        raise ValueError("the first column name may not start with '#'")
    lines = [",".join(header)]
    floats = ",".join([fmt] * len(header))    # a row of floats, one `%`
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        rows = rows.tolist()                   # the same doubles, unboxed
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} cells, {len(header)} names")
        if all(isinstance(v, float) for v in row):
            lines.append(floats % tuple(row))
        else:
            lines.append(",".join([_cell(v, fmt) for v in row]))
    text = "\r\n".join(lines) + "\r\n"
    if meta:
        pairs = [f"{k}={_cell(v, fmt)}" for k, v in meta.items()]
        if any(not str(k) or "=" in str(k) for k in meta) or \
                any(c.isspace() for c in "".join(pairs)):
            raise ValueError(f"metadata {meta!r} does not fit `key=value`")
        text = "# " + " ".join(pairs) + "\n" + text
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_table(path):
    """(meta, header, rows) of a table file; every value is a string."""
    with open(path) as fh:
        lines = fh.read().split("\n")[:-1]
    meta = {}
    if lines and lines[0].startswith("#"):
        meta = dict(kv.split("=", 1) for kv in lines.pop(0)[1:].split())
    return meta, lines[0].split(","), [line.split(",") for line in lines[1:]]
