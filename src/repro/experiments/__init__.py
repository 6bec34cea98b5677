"""Experiment harness: named instances, runners, table renderers, CLI."""

from .instances import (
    MEDIUM_SPECS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    SMALL_SPECS,
    SPECS_BY_NAME,
    TABLE1_SPECS,
    InstanceSpec,
    spec_by_name,
)
from .runner import (
    DEFAULT_ALGOS,
    ExperimentResult,
    InstanceResult,
    run_instances,
)
from .singleproc import (
    GREEDY_NAMES,
    SingleProcResult,
    SingleProcRow,
    SingleProcSpec,
    run_singleproc,
    singleproc_specs,
)
from .sweep import RankingSweep, ranking_sweep
from .tables import render_comparison, render_quality_table, render_table1

__all__ = [
    "InstanceSpec",
    "TABLE1_SPECS",
    "SMALL_SPECS",
    "MEDIUM_SPECS",
    "SPECS_BY_NAME",
    "spec_by_name",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "run_instances",
    "ExperimentResult",
    "InstanceResult",
    "DEFAULT_ALGOS",
    "run_singleproc",
    "singleproc_specs",
    "SingleProcSpec",
    "SingleProcRow",
    "SingleProcResult",
    "GREEDY_NAMES",
    "render_table1",
    "render_quality_table",
    "render_comparison",
    "ranking_sweep",
    "RankingSweep",
]
