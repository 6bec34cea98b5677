"""Render experiment results as the paper's tables (ASCII).

Three renderers matching the paper's evaluation section:

* :func:`render_table1` — instance statistics (Table I);
* :func:`render_quality_table` — quality ratios vs LB with the average
  quality/time footer (Tables II and III);
* :func:`render_comparison` — measured-vs-paper side-by-side, printed by
  the CLI's ``table*`` commands.

A quality cell ends in ``*`` when, on some seed, the local search that
produced the answer (``+ls``, GRASP's best iteration) stopped at its
move budget rather than at a local optimum; a footnote says so.
"""

from __future__ import annotations

from .instances import PAPER_TABLE1
from .runner import ExperimentResult

__all__ = ["render_table1", "render_quality_table", "render_comparison"]


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def _quality(r, algo: str) -> str:
    return _fmt(r.quality[algo]) + "*" * bool(r.ls_capped.get(algo))


def _noted(result: ExperimentResult, table: str) -> str:
    if any(any(r.ls_capped.values()) for r in result.rows):
        table += "\n* local search stopped at its move budget on some seed"
    return table


def render_table1(result: ExperimentResult, paper: bool = True) -> str:
    """Instance statistics like Table I (optionally with paper columns)."""
    header = ["Instance", "|V1|", "|V2|", "|N|", "pins"]
    if paper:
        header += ["paper |N|", "paper pins"]
    rows = [header]
    for r in result.rows:
        row = [
            r.name,
            str(r.n_tasks),
            str(r.n_procs),
            str(r.n_hedges),
            str(r.total_pins),
        ]
        if paper:
            ref = PAPER_TABLE1.get(r.name.removesuffix("-W").removesuffix("-R"))
            row += (
                [str(ref[2]), str(ref[3])] if ref else ["-", "-"]
            )
        rows.append(row)
    return _ascii_table(rows)


def render_quality_table(result: ExperimentResult, title: str = "") -> str:
    """Quality ratios and the average-quality / average-time footer."""
    algos = list(result.algorithms)
    rows = [["Instance", "LB", *algos]]
    for r in result.rows:
        rows.append(
            [r.name, f"{r.lower_bound:g}"]
            + [_quality(r, a) for a in algos]
        )
    avg_q = result.average_quality()
    avg_t = result.average_time()
    rows.append(["Average quality", ""] + [_fmt(avg_q[a]) for a in algos])
    rows.append(
        ["Average time (s)", ""] + [_fmt(avg_t[a], 3) for a in algos]
    )
    table = _noted(result, _ascii_table(rows, footer_rows=2))
    return f"{title}\n{table}" if title else table


def render_comparison(
    result: ExperimentResult,
    paper_table: dict[str, tuple[float, ...]],
    title: str = "",
) -> str:
    """Measured vs paper quality ratios, interleaved per algorithm."""
    algos = list(result.algorithms)
    header = ["Instance", "LB", "LB(paper)"]
    for a in algos:
        header += [a, f"{a}(paper)"]
    rows = [header]
    for r in result.rows:
        ref = paper_table.get(r.name)
        row = [
            r.name,
            f"{r.lower_bound:g}",
            f"{ref[0]:g}" if ref else "-",
        ]
        for j, a in enumerate(algos):
            row.append(_quality(r, a))
            row.append(_fmt(ref[j + 1]) if ref else "-")
        rows.append(row)
    avg_q = result.average_quality()
    footer = ["Average quality", "", ""]
    for a in algos:
        footer.append(_fmt(avg_q[a]))
        refs = [
            paper_table[r.name][algos.index(a) + 1]
            for r in result.rows
            if r.name in paper_table
        ]
        footer.append(_fmt(sum(refs) / len(refs)) if refs else "-")
    rows.append(footer)
    table = _noted(result, _ascii_table(rows, footer_rows=1))
    return f"{title}\n{table}" if title else table


def _ascii_table(rows: list[list[str]], footer_rows: int = 0) -> str:
    widths = [
        max(len(row[c]) for row in rows) for c in range(len(rows[0]))
    ]

    def fmt_row(row: list[str]) -> str:
        cells = [row[0].ljust(widths[0])] + [
            row[c].rjust(widths[c]) for c in range(1, len(row))
        ]
        return "  ".join(cells)

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [fmt_row(rows[0]), sep]
    body_end = len(rows) - footer_rows
    lines += [fmt_row(r) for r in rows[1:body_end]]
    if footer_rows:
        lines.append(sep)
        lines += [fmt_row(r) for r in rows[body_end:]]
    return "\n".join(lines)
