"""One CSV table layer for every sensor, feature, score, prediction and
result file.

A table format is a sequence of `Column`s: a header name, a parser from
cell text and a formatter to cell text. `write_table` and `read_table` own
the file, the csv dialect (the default one, minimal quoting, with CRLF line
ends but for the LF of dataset sensor files), the header, None as an empty
cell, and the errors: every malformed row (missing column, ragged row, bad
value, undecodable bytes, csv syntax) surfaces as `ParseError` with path and
line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from ziskit.errors import InvariantViolation, ParseError


@dataclass(frozen=True)
class Column:
    """None is written as an empty cell. An empty cell reads as None in a
    `nullable` column; elsewhere it goes to `parse`, which rejects it for numbers."""

    name: str
    parse: Callable[[str], Any] = str
    format: Callable[[Any], str] = str
    nullable: bool = False


def _real(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def real(name: str, nullable: bool = False, finite: bool = False) -> Column:
    """Floats are written as `repr(float(v))`, the shortest exact form.

    A `finite` column rejects nan and +-inf cells."""
    return Column(name, _finite if finite else float, _real, nullable)


def flag(name: str) -> Column:
    """A bool written as 0/1."""
    return Column(name, lambda cell: bool(int(cell)), lambda value: str(int(value)))


def choice(name: str, kind: Callable[[str], Any]) -> Column:
    """An enum written as its value."""
    return Column(name, kind, lambda member: member.value)


def write_table(path: Path, columns: Sequence[Column], rows: Iterable[Sequence],
                line_end: str = "\r\n") -> None:
    """Header plus one line per row, each ended by `line_end`; row values
    line up with `columns`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow([col.name for col in columns])
        for row in rows:
            writer.writerow(["" if value is None else col.format(value)
                             for col, value in zip(columns, row, strict=True)])


def read_table(path: Path, columns: Sequence[Column],
               make: Callable[..., Any] = lambda *values: values) -> Iterator:
    """Stream `make(*values)` per data row, values in `columns` order.

    Blank lines are skipped. A ValueError or InvariantViolation raised by
    `make` is reported like a bad cell, with the row's line.
    """
    with open(path, "rb") as fh:
        # Decoding line by line pins undecodable bytes to their line.
        reader = csv.reader(line.decode("utf-8") for line in fh)
        try:
            header = next(reader, None)
            if header is None:
                return
            where = {name: i for i, name in enumerate(header)}
            missing = [c.name for c in columns if c.name not in where]
            if missing:
                raise ValueError(f"missing column(s) {', '.join(missing)}")
            plan = [(where[c.name], c.nullable, c.parse) for c in columns]
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} cells, header has {len(header)}")
                yield make(*[None if nullable and not cells[i] else parse(cells[i])
                             for i, nullable, parse in plan])
        except UnicodeDecodeError as exc:  # raised before the line is counted
            raise ParseError(f"undecodable bytes: {exc}", path=str(path),
                             line=reader.line_num + 1) from exc
        except (ValueError, csv.Error, InvariantViolation) as exc:
            raise ParseError(f"bad row: {exc}", path=str(path),
                             line=reader.line_num) from exc
