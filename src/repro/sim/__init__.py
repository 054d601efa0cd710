"""Functional (architectural) simulation and dynamic traces."""

from repro.sim.functional import (
    DEFAULT_MAX_INSTRUCTIONS,
    FunctionalSimulator,
    MachineState,
    run_program,
)
from repro.sim.limits import LimitStudyResult, limit_study, limit_study_for_workload
from repro.sim.predecode import decode_program
from repro.sim.trace import Trace

__all__ = [
    "FunctionalSimulator",
    "MachineState",
    "run_program",
    "Trace",
    "decode_program",
    "DEFAULT_MAX_INSTRUCTIONS",
    "LimitStudyResult",
    "limit_study",
    "limit_study_for_workload",
]
