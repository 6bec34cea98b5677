"""User-facing scheduling layer: named problems and their schedules.

Solve a :class:`SchedulingProblem` with :func:`repro.solve`.
"""

from .model import SchedulingProblem, TaskSpec
from .schedule import PlacedPart, Schedule

__all__ = ["SchedulingProblem", "TaskSpec", "Schedule", "PlacedPart"]
