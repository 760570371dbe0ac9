"""Experiment harness: a uniform result type and runner.

Every experiment module exposes ``run(seed=0, **params) -> ExperimentResult``
and can be executed directly (``python -m repro.experiments.fig1a``).
The benchmark suite calls the same ``run`` functions, asserting the
*shape* of each result (who wins, by roughly what factor) rather than
absolute numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.analysis.tables import render_table


@dataclasses.dataclass
class ExperimentResult:
    """One experiment's output: a printable table plus headline metrics."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[tuple]
    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        parts = [render_table(self.columns, self.rows,
                              title=f"[{self.experiment_id}] {self.title}")]
        if self.notes:
            parts.append("")
            parts.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(parts)

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"{self.experiment_id} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None

    def to_dict(self) -> dict:
        """A JSON-serialisable form (for ``python -m repro --json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "metrics": dict(self.metrics),
            "notes": list(self.notes),
        }


def main(run: Callable[..., ExperimentResult], **kwargs: Any) -> None:
    """Standard ``__main__`` body for experiment modules."""
    result = run(**kwargs)
    print(result.render())
    if result.metrics:
        print()
        for name in sorted(result.metrics):
            print(f"  {name} = {result.metrics[name]:.6g}")
