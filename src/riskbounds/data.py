"""Core data types and CSV ingestion for stratified binary-outcome counts.

A category table records, for each ordered score stratum, how many people
were followed up (``total``) and how many had the outcome (``events``).
The observed proportion events/total is the group-risk estimate that all
the interval machinery downstream operates on.

Input format is a flat CSV with header ``category,total,events``.  Lines
starting with ``#`` are comments and are ignored, as are blank lines.
"""

from __future__ import annotations

from dataclasses import dataclass


class InputError(ValueError):
    """Bad user-supplied data: malformed file, impossible counts, bad flags."""


def check_integer(value: int, name: str, minimum: int = 1) -> None:
    """Raise InputError unless ``value`` is an int (not a bool) >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")


class ParseError(InputError):
    """Malformed CSV input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


CSV_HEADER = "category,total,events"
_HEADER_FIELDS = tuple(CSV_HEADER.split(","))


@dataclass(frozen=True)
class CategoryRow:
    """One score stratum: ``events`` outcomes among ``total`` people."""

    category: int
    total: int
    events: int

    def __post_init__(self):
        if not (
            type(self.category) is int
            and type(self.total) is int
            and type(self.events) is int
        ):
            # the slow check, for int subclasses and for the message
            for name in ("category", "total", "events"):
                value = getattr(self, name)
                if not isinstance(value, int) or isinstance(value, bool):
                    raise InputError(f"{name} must be an integer, got {value!r}")
        if self.category < 1:
            raise InputError(f"category index must be >= 1, got {self.category}")
        if self.total < 1:
            raise InputError(
                f"category {self.category}: stratum has no subjects (total=0)"
            )
        if self.events < 0:
            raise InputError(f"category {self.category}: negative event count")
        if self.events > self.total:
            raise InputError(
                f"category {self.category}: events ({self.events}) exceed "
                f"total ({self.total})"
            )

    @property
    def proportion(self) -> float:
        return self.events / self.total


@dataclass(frozen=True)
class CategoryTable:
    """Ordered score strata with per-stratum trial and event counts.

    Immutable after construction; category indices must be strictly
    increasing.  A table needs at least two strata before it can support a
    regression fit, but single-stratum tables are legal (per-stratum
    interval work does not need a second row).
    """

    rows: tuple[CategoryRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise InputError("category table has no rows")
        cats = [r.category for r in self.rows]
        for a, b in zip(cats, cats[1:]):
            if b <= a:
                raise InputError(
                    f"category indices must be strictly increasing, "
                    f"found {a} then {b}"
                )

    @property
    def categories(self) -> tuple[int, ...]:
        return tuple(r.category for r in self.rows)

    @property
    def total_subjects(self) -> int:
        return sum(r.total for r in self.rows)

    @property
    def total_events(self) -> int:
        return sum(r.events for r in self.rows)


def parse_category_table(text: str) -> CategoryTable:
    """Parse ``category,total,events`` CSV content into a CategoryTable.

    Accepts LF or CRLF line endings and a UTF-8 BOM.  ``#`` comment lines
    and blank lines are skipped.  Rows may arrive unsorted; the result is
    sorted by category index.  Any malformed or invalid row raises
    ParseError with its line number; zero-total strata are rejected here
    rather than silently dropped, since dropping them would change fit
    results invisibly.  The table holds the rows alone: the CLI records
    the file it read on the manifest's ``inputs:`` line.
    """
    text = text.lstrip("﻿")
    header_seen = False
    numbered_rows: list[tuple[int, CategoryRow]] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if not header_seen:
            if tuple(f.strip() for f in fields) != _HEADER_FIELDS:
                raise ParseError(
                    f"expected header {CSV_HEADER!r}, got {line!r}", lineno
                )
            header_seen = True
            continue
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 comma-separated values, got {len(fields)}", lineno
            )
        category, total, events = fields
        # strip before int(): str.strip also removes \x1c-\x1f, int() does not
        try:
            numbers = int(category.strip()), int(total.strip()), int(events.strip())
        except ValueError:
            raise ParseError(f"non-integer value in row {line!r}", lineno) from None
        try:
            row = CategoryRow(*numbers)
        except InputError as exc:
            raise ParseError(str(exc), lineno) from None
        numbered_rows.append((lineno, row))

    if not header_seen:
        raise ParseError(f"empty input: expected header {CSV_HEADER!r}", 1)
    if not numbered_rows:
        raise ParseError("no data rows after header", last_line)

    numbered_rows.sort(key=lambda pair: pair[1].category)
    for (_, a), (lineno, b) in zip(numbered_rows, numbered_rows[1:]):
        if b.category == a.category:
            raise ParseError(f"duplicate category {b.category}", lineno)
    return CategoryTable(rows=tuple(r for _, r in numbered_rows))


def expand_weights(table: CategoryTable, k: int) -> CategoryTable:
    """Replicate every stratum ``k``-fold: totals and events multiply by k.

    Observed proportions are unchanged exactly (rational equality), which
    is what makes the weight-expansion experiment meaningful: only the
    apparent information content grows.  Python integers do not overflow,
    so no overflow guard is needed beyond validating k.
    """
    check_integer(k, "weight factor")
    rows = tuple(
        CategoryRow(r.category, r.total * k, r.events * k) for r in table.rows
    )
    return CategoryTable(rows=rows)
