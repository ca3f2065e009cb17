"""Decentralized constraint-driven highway platooning simulator.

Connected vehicles each solve a tiny per-step program: brake no harder
than the actuator floor, never accelerate while the spacing envelope or
the wake-drag descent direction forbids it, and keep an eye on the
arrival deadline.  Platoons form, split, and merge purely from those
local decisions; the engine only integrates, audits, and bookkeeps.
The root loads only the kernels, the engine and the trajectory's
columns; a run's readers are in ``platoonflow.analysis``.
"""

from ._kernels_py import (
    FeasibilityVerdict,
    deadline_margin,
    drag_force,
    drag_partials,
    flow_bound,
    follower_decision,
    leader_decision,
    safe_interval,
    stopping_margin,
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
from .trajectory import Trajectory

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation; there is only ``"python"``."""
    return "python"


__all__ = [
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
    "VehicleMode",
    "VehicleState",
    "WorldState",
    "backend_name",
    "deadline_margin",
    "drag_force",
    "drag_partials",
    "flow_bound",
    "follower_decision",
    "insert_vehicle",
    "leader_decision",
    "run",
    "safe_interval",
    "step",
    "stopping_margin",
    "validate_params",
]
