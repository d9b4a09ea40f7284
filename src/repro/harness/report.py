"""ASCII reporting for experiment results.

Every experiment in :mod:`repro.harness.experiments` returns an
:class:`ExperimentResult`: a named table of rows whose string rendering
prints the same rows/series the paper's figure or table reports, plus the
paper's anchor values where the text states them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


#: Column-name fragments whose values are plain numbers, not rates.
#: Only consulted by the legacy heuristic fallback; experiments should
#: declare each column's kind explicitly via ``ExperimentResult.kinds``.
_PLAIN_COLUMNS = ("ipc", "delay", "count", "cycles")

#: Recognised column kinds: a rate renders as a percentage, a plain
#: metric as a fixed-point number, and a label is passed through.
COLUMN_KINDS = ("rate", "plain", "label")


def fmt(value: Any, column: str = "", kind: str = "") -> str:
    """Format one cell: rates as percentages, plain metrics as numbers.

    *kind* (``"rate"`` / ``"plain"``) decides explicitly; without it the
    legacy magnitude heuristic applies — a float in [-0.5, 1.5] outside a
    known plain column is assumed to be a rate, which mis-renders genuine
    small numbers (a 1.2-cycle delay becomes "120.0%").  Declare kinds on
    the result instead of relying on the fallback.
    """
    if isinstance(value, float):
        if kind == "rate":
            return f"{value:.1%}"
        if kind == "plain":
            return f"{value:.2f}"
        name = column.lower()
        if any(frag in name for frag in _PLAIN_COLUMNS):
            return f"{value:.2f}"
        if -0.5 <= value <= 1.5:
            return f"{value:.1%}"
        return f"{value:.2f}"
    return str(value)


@dataclass
class ExperimentResult:
    """A reproduced table/figure: header, rows, and provenance notes."""

    #: Experiment id, e.g. "fig8" or "table2".
    name: str
    #: One-line description of what the paper's figure/table shows.
    title: str
    #: Column names; the first column is the row label.
    columns: List[str]
    #: Data rows (first element is the label).
    rows: List[List[Any]] = field(default_factory=list)
    #: Paper anchor values / caveats, printed under the table.
    notes: List[str] = field(default_factory=list)
    #: Explicit per-column formatting: {column name: "rate" | "plain"}.
    #: Columns not listed fall back to the legacy magnitude heuristic.
    kinds: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = [k for k in self.kinds.values() if k not in COLUMN_KINDS]
        if unknown:
            raise ValueError(f"unknown column kind(s) {unknown}; "
                             f"choose from {COLUMN_KINDS}")

    def add_row(self, label: str, *values: Any) -> None:
        self.rows.append([label, *values])

    def set_kind(self, kind: str, *columns: str) -> None:
        """Declare *columns* to format as *kind* ("rate" or "plain")."""
        if kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {kind!r}; "
                             f"choose from {COLUMN_KINDS}")
        for column in columns:
            self.kinds[column] = kind

    def row(self, label: str) -> List[Any]:
        """Return the row with the given label (KeyError if absent)."""
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(label)

    def column(self, name: str) -> List[Any]:
        """Return all values of one named column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def cell(self, label: str, column: str) -> Any:
        """Return a single cell by row label and column name."""
        return self.row(label)[self.columns.index(column)]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (embedded in run manifests by the CLI)."""
        return {
            "name": self.name,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "kinds": dict(self.kinds),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`as_dict`: rebuild a result from stored JSON
        (used by the campaign store to re-render tables without
        recomputing anything)."""
        return cls(
            name=data["name"],
            title=data.get("title", ""),
            columns=list(data.get("columns", [])),
            rows=[list(row) for row in data.get("rows", [])],
            notes=list(data.get("notes", [])),
            kinds=dict(data.get("kinds", {})),
        )

    def render(self) -> str:
        """Render the table as aligned ASCII."""
        kinds = self.kinds
        table = [self.columns] + [
            [fmt(cell, self.columns[i], kinds.get(self.columns[i], ""))
             for i, cell in enumerate(row)]
            for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in table)
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.name}: {self.title} =="]
        header = "  ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in table[1:]:
            lines.append(
                "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                          for i, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
