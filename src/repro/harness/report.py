"""Plain-text rendering of tables and figure series.

The paper's figures are bar charts; the harness prints the same data as
fixed-width tables — one row per benchmark, one column group per bar —
so every number is directly comparable with the published chart.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence


def fmt(value: Any, precision: int = 2) -> str:
    """Human formatting: floats rounded, ints plain, None blank."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render a fixed-width table with right-aligned numeric columns."""
    text_rows = [[fmt(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(widths[i]) if i else cell.ljust(widths[i])
            for i, cell in enumerate(cells)
        )

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


def harness_stages(
    metrics: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-stage harness accounting, read back from a metrics snapshot.

    ``metrics`` is a registry snapshot (name -> entry).  Each stage with
    any activity maps to its compute ``seconds`` and ``computed`` count
    (the ``harness.stage.<stage>.seconds`` histogram's sum and count),
    its in-memory ``hits``, store ``disk_hits`` and simulated
    ``instructions``.
    """
    prefix = "harness.stage."
    stages: Dict[str, Dict[str, Any]] = {}
    for name, entry in metrics.items():
        if not name.startswith(prefix):
            continue
        stage, field = name[len(prefix):].rsplit(".", 1)
        row = stages.setdefault(
            stage,
            dict(seconds=0.0, computed=0, hits=0, disk_hits=0, instructions=0),
        )
        if field == "seconds":
            row["seconds"] = entry["sum"]
            row["computed"] = entry["count"]
        else:
            row[field] = entry["value"]
    return {
        stage: row
        for stage, row in sorted(stages.items())
        if row["computed"] or row["hits"] or row["disk_hits"]
    }


def render_perf(metrics, title: str = "Harness performance") -> str:
    """Render the harness stage report of a metrics snapshot.

    One row per pipeline stage / cache kind: compute seconds, then how
    the requests for that artifact were satisfied (computed fresh,
    in-memory hit, persistent-cache hit), then simulation throughput
    (million simulated instructions per compute-second) for stages
    that record instruction counts.
    """
    stages = harness_stages(metrics)

    def mips(instructions, seconds):
        if not instructions or seconds <= 0:
            return ""
        return f"{instructions / seconds / 1e6:.2f}"

    columns = ("seconds", "computed", "hits", "disk_hits")
    totals = {
        column: sum(row[column] for row in stages.values())
        for column in columns + ("instructions",)
    }
    rows = [
        [name, *(row[c] for c in columns)]
        + [mips(row["instructions"], row["seconds"])]
        for name, row in [*stages.items(), ("total", totals)]
    ]
    return render_table(
        ["stage", "compute(s)", "computed", "mem hits", "disk hits", "MIPS"],
        rows,
        title=title,
        precision=3,
    )


def render_series(
    title: str,
    group_labels: Sequence[str],
    metric_names: Sequence[str],
    data: Mapping[str, Mapping[str, Sequence[float]]],
    precision: int = 2,
) -> str:
    """Render figure-style data: per benchmark, one row per metric.

    Args:
        title: figure title.
        group_labels: the bar labels within each group (e.g. the four
            scope/length configurations).
        metric_names: metrics to print (keys into the inner mapping).
        data: ``data[benchmark][metric][bar_index]``.
    """
    headers = ["benchmark / metric"] + list(group_labels)
    rows: List[List[Any]] = []
    for benchmark, metrics in data.items():
        for metric in metric_names:
            series = metrics.get(metric)
            if series is None:
                continue
            rows.append([f"{benchmark} {metric}"] + list(series))
        rows.append([""] * (len(group_labels) + 1))
    if rows and all(cell == "" for cell in rows[-1]):
        rows.pop()
    return render_table(headers, rows, title=title, precision=precision)
