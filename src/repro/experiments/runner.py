"""Shared scaffolding for figure reproductions.

Each figure module produces a :class:`FigureResult` — the series the
paper charts, as rows of numbers — and the benchmark harness prints it.
Absolute values are virtual seconds from the calibrated cost model; the
claims under test are the *shapes* (who wins, where peaks/crossovers
fall), recorded per figure in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class SeriesPoint:
    """One x position with one value per series."""

    x: float | int | str
    values: dict[str, float]


@dataclass
class FigureResult:
    """A reproduced table/figure, ready to print."""

    figure_id: str
    title: str
    x_label: str
    series_names: list[str]
    points: list[SeriesPoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    consistent: bool = True

    def add(self, x, **values: float) -> None:
        self.points.append(SeriesPoint(x, dict(values)))

    def series(self, name: str) -> list[float]:
        return [point.values[name] for point in self.points]

    def xs(self) -> list:
        return [point.x for point in self.points]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def table(self) -> str:
        header = [self.x_label] + self.series_names
        widths = [max(12, len(name) + 2) for name in header]
        lines = [
            f"{self.figure_id}: {self.title}",
            " | ".join(
                name.ljust(width) for name, width in zip(header, widths)
            ),
            "-+-".join("-" * width for width in widths),
        ]
        for point in self.points:
            cells = [str(point.x).ljust(widths[0])]
            for name, width in zip(self.series_names, widths[1:]):
                value = point.values.get(name)
                cell = "-" if value is None else f"{value:.2f}"
                cells.append(cell.ljust(width))
            lines.append(" | ".join(cells))
        for note in self.notes:
            lines.append(f"note: {note}")
        if not self.consistent:
            lines.append("WARNING: a run failed the convergence check")
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        """The figure as a machine-readable JSON document (the CI
        artifact format; keys sorted so baseline diffs are stable
        regardless of insertion order, points in series order)."""
        document = {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "series_names": list(self.series_names),
            "points": [
                {"x": point.x, "values": point.values}
                for point in self.points
            ],
            "notes": list(self.notes),
            "consistent": self.consistent,
        }
        return json.dumps(document, indent=indent, sort_keys=True)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.table())


def checked(result: FigureResult, reports: Iterable) -> FigureResult:
    """Fold convergence reports into the figure result."""
    for report in reports:
        if not report.consistent:
            result.consistent = False
            result.notes.append(report.summary())
    return result
