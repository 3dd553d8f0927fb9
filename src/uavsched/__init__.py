"""Battery-aware task scheduling for indoor UAV fleets.

A list-scheduling constructor turns a task sequence into a full fleet
timeline under battery, recharge-bay, position and precedence
constraints; a discrete particle swarm searches the sequence space for
a short makespan.
"""

from .model import (
    Action,
    ActionKind,
    InstanceError,
    Position,
    PositionKind,
    ProblemInstance,
    RechargeStation,
    Schedule,
    SchedulingError,
    SequenceError,
    Task,
    TaskType,
    TrajectoryMap,
    Uav,
    validate_precedence,
)
from .eat import build_schedule, check_sequence
from .validate import Violation, validate_schedule
from .sequences import (
    PRIORITY_RULES,
    apply_swaps,
    extend_sequence,
    priority_orderings,
    repair,
)
from .io import load_instance, save_instance
from .pso import PsoConfig, RunReport, fitness, run_pso, update_velocity
from .datagen import GenSpec, GenerationError, generate_instance
from .sampledata import sample_instance, sample_map

__version__ = "0.1.0"
