"""CSV emission with provenance comment headers.

A table is a header and equal-length columns, each a numpy array or a
sequence of one kind of value. Each column is formatted in one pass:

- floats with `%.12g`, so reruns of the same configuration write
  byte-identical data rows;
- integers, Python (of any size) or numpy, as their decimal digits;
- booleans, Python or numpy, as `1` and `0`;
- strings as given.

A cell that holds `,`, `"`, CR or LF is quoted as RFC 4180 says, with each
`"` inside it doubled; no other cell is quoted. Rows end in LF, the decimal
point is '.', and '#'-prefixed comment lines come first.
"""

from __future__ import annotations

import numbers
import re
from pathlib import Path

import numpy as np

# numpy dtype kind -> column kind
_ARRAY_KINDS = {"f": "f", "i": "i", "u": "i", "b": "b", "U": "U"}
_PYTHON_TYPES = {"f": float, "i": int, "b": bool, "U": str}
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _type_kind(t: type) -> str:
    if issubclass(t, str):
        return "U"
    if issubclass(t, (bool, np.bool_)):
        return "b"
    if issubclass(t, numbers.Integral):
        return "i"
    if issubclass(t, numbers.Real):
        return "f"
    raise TypeError(f"cannot write a {t.__name__} to a CSV cell")


def _quoted(cells: list[str]) -> list[str]:
    """The cells, each quoted if it holds a separator, a quote or a line
    break; one search over the column when none does."""
    if not _NEEDS_QUOTES.search("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c
            for c in cells]


def format_column(column) -> list[str]:
    """The cells of one column, as `write_csv` writes them."""
    if isinstance(column, np.ndarray) and column.dtype.kind in _ARRAY_KINDS:
        kind = _ARRAY_KINDS[column.dtype.kind]
        values = column.tolist()  # Python floats, ints, bools or strings
    else:
        kinds = {_type_kind(t) for t in set(map(type, column))}
        if len(kinds) > 1:
            raise TypeError(f"a column mixes kinds {sorted(kinds)}")
        kind = kinds.pop() if kinds else "U"
        values = list(map(_PYTHON_TYPES[kind], column))
    if kind == "f":
        return [f"{x:.12g}" for x in values]
    if kind == "i":
        return list(map(str, values))
    if kind == "b":
        return ["1" if x else "0" for x in values]
    return _quoted(values)


def write_csv(path, header, columns, comments=()) -> None:
    """Write `comments`, `header` and the rows of `columns`."""
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    cells = [format_column(c) for c in columns]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(",".join(_quoted(list(header))) + "\n")
        if cells and cells[0]:
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_data_rows(path) -> list[str]:
    """Non-comment lines of a CSV, for determinism comparisons."""
    with open(path) as f:
        return [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
