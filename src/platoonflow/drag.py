"""Aerodynamic drag model and the drag-descent acceleration bound.

The law is quadratic in speed with an exponential wake discount: a
trailing vehicle sees less drag the smaller its gap.  The controller
never needs more than the force, its two partials and the descent bound
they give, all computed by the kernels from the law's coefficients.
"""

from __future__ import annotations

from . import _kernels_py as kernels
from .core import DragCoefficients


class ExponentialWakeDrag:
    """The wake drag law under one set of coefficients.

    The engine, the trajectory and the controller's entry points take an
    instance, so a world can swap coefficients mid-run.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: DragCoefficients | None = None):
        self.coeffs = coeffs if coeffs is not None else DragCoefficients()

    def force(self, v: float, p_hat: float, in_wake: bool) -> float:
        """Drag force (m/s^2, force per unit mass) at the given state."""
        c = self.coeffs
        return kernels.drag_force(v, p_hat, in_wake, c.c0, c.c1, c.c2)

    def partials(self, v: float, p_hat: float, in_wake: bool) -> tuple[float, float]:
        """(dF/dv, dF/dp_hat) at the given state."""
        c = self.coeffs
        return kernels.drag_partials(v, p_hat, in_wake, c.c0, c.c1, c.c2)

    def descent_bound(self, v: float, p_hat: float, v_hat: float,
                      in_wake: bool) -> float:
        """Largest acceleration keeping squared drag non-increasing."""
        c = self.coeffs
        return kernels.flow_bound(v, p_hat, v_hat, in_wake, c.c0, c.c1, c.c2)

