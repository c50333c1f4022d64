"""MATCH core: designs, experiment harness, Table I configurations."""

from .breakdown import RunResult, TimeBreakdown, average_breakdowns
from .configs import (
    DESIGN_NAMES,
    INPUT_SIZES,
    SCALING_SIZES,
    TABLE1,
    ExperimentConfig,
    input_matrix,
    scaling_matrix,
    valid_proc_counts,
)
from .designs import DESIGNS, ReinitFti, RestartFti, UlfmFti
from .harness import AveragedResult

__all__ = [
    "AveragedResult",
    "DESIGNS",
    "DESIGN_NAMES",
    "ExperimentConfig",
    "INPUT_SIZES",
    "ReinitFti",
    "RestartFti",
    "RunResult",
    "SCALING_SIZES",
    "TABLE1",
    "TimeBreakdown",
    "UlfmFti",
    "average_breakdowns",
    "input_matrix",
    "scaling_matrix",
    "valid_proc_counts",
]
