"""Decentralized constraint-driven highway platooning simulator.

Connected vehicles each solve a tiny per-step program: brake no harder
than the actuator floor, never accelerate while the spacing envelope or
the wake-drag descent direction forbids it, and keep an eye on the
arrival deadline.  Platoons form, split, and merge purely from those
local decisions; the engine only integrates, audits, and bookkeeps.
"""

from ._kernels_py import (
    FeasibilityVerdict,
    deadline_margin,
    drag_force,
    drag_partials,
    flow_bound,
    safe_interval,
    stopping_margin,
)
from .controller import (
    ControlDecision,
    leader_control,
    solve_follower_control,
)
from .core import (
    DragCoefficients,
    OrderingError,
    RoadNetwork,
    SafetyAuditError,
    SimParams,
    SimulationError,
    VehicleMode,
    VehicleState,
    validate_params,
)
from .sim import (
    Event,
    SimResult,
    WorldState,
    insert_vehicle,
    run,
    step,
)
from .trajectory import Trajectory, TrajectoryRecord

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation; there is only ``"python"``."""
    return "python"


__all__ = [
    "ControlDecision",
    "DragCoefficients",
    "Event",
    "FeasibilityVerdict",
    "OrderingError",
    "RoadNetwork",
    "SafetyAuditError",
    "SimParams",
    "SimResult",
    "SimulationError",
    "Trajectory",
    "TrajectoryRecord",
    "VehicleMode",
    "VehicleState",
    "WorldState",
    "backend_name",
    "deadline_margin",
    "drag_force",
    "drag_partials",
    "flow_bound",
    "insert_vehicle",
    "leader_control",
    "run",
    "safe_interval",
    "solve_follower_control",
    "step",
    "stopping_margin",
    "validate_params",
]
