"""The wake drag law: its reference values, its partials and descent
bound, and two relations that hold exactly on every run of ``RUNS``:
no decision reads ``drag.c0``, and with ``drag.c1 = 0`` every row has
the solo drag.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from platoonflow import (DragCoefficients, drag_force, drag_partials,
                         flow_bound, run)
from platoonflow import _kernels_py as kernels
from platoonflow.analysis import summarize
from conftest import RUNS, with_law, written_bytes

LAW = DragCoefficients()

speeds = st.floats(min_value=1.0, max_value=40.0)
gaps = st.floats(min_value=-120.0, max_value=-0.5)


def test_solo_force_reference_value():
    assert drag_force(30.0, -math.inf, LAW) == 0.36


def test_wake_force_reference_value():
    assert drag_force(30.0, -20.0, LAW) == 0.3163903521131544


def test_partials_reference_values():
    f_v, f_p = drag_partials(30.0, -20.0, LAW)
    assert f_v == 0.021092690140876964
    assert f_p == -0.003488771830947645


def test_flow_bound_reference_value():
    # closing at 2 m/s the ceiling is |F_p|/F_v * v_hat
    bound = flow_bound(30.0, -20.0, 2.0, LAW)
    assert math.isclose(bound, 0.33080387638052067, rel_tol=1e-12)


def test_flow_bound_scales_with_closing_speed():
    one = flow_bound(22.0, -6.0, 1.0, LAW)
    assert math.isclose(one, 0.5196469853590147, rel_tol=1e-12)
    assert math.isclose(flow_bound(22.0, -6.0, -3.0, LAW),
                        -3.0 * one, rel_tol=1e-12)


def test_law_object_matches_module_functions():
    # the package exports the kernels' law; the coefficients carry no
    # second copy of it
    assert drag_force(22.0, -6.0, LAW) == 0.1217221212077987
    assert drag_force(22.0, -6.0, LAW) \
        == kernels.drag_force(22.0, -6.0, LAW)
    assert drag_partials(30.0, -20.0, LAW) == kernels.drag_partials(
        30.0, -20.0, LAW)
    assert flow_bound(30.0, -20.0, 2.0, LAW) \
        == kernels.flow_bound(30.0, -20.0, 2.0, LAW)
    for method in ("force", "partials", "descent_bound"):
        assert not hasattr(LAW, method)


def test_no_vehicle_ahead_is_the_solo_drag():
    assert drag_force(28.0, -math.inf, LAW) == LAW.c0 * 28.0 * 28.0


@given(v=speeds, p_hat=gaps)
def test_wake_discount_reduces_drag(v, p_hat):
    assert drag_force(v, p_hat, LAW) < drag_force(v, -math.inf, LAW)


@given(v=speeds, p_hat=gaps)
def test_force_increases_with_speed_decreases_with_gap(v, p_hat):
    f_v, f_p = drag_partials(v, p_hat, LAW)
    assert f_v > 0.0
    assert f_p < 0.0


@given(v=speeds, p_hat=gaps)
def test_partials_match_difference_quotient(v, p_hat):
    h = 1e-5
    f_v, f_p = drag_partials(v, p_hat, LAW)
    fd_v = (drag_force(v + h, p_hat, LAW)
            - drag_force(v - h, p_hat, LAW)) / (2 * h)
    fd_p = (drag_force(v, p_hat + h, LAW)
            - drag_force(v, p_hat - h, LAW)) / (2 * h)
    assert math.isclose(f_v, fd_v, rel_tol=1e-5)
    assert math.isclose(f_p, fd_p, rel_tol=1e-5)


@given(v=speeds, p_hat=gaps, v_hat=st.floats(min_value=-15.0, max_value=15.0))
@example(v=1.0, p_hat=-120.0, v_hat=5e-324)
@example(v=1.0, p_hat=-120.0, v_hat=-5e-324)
def test_flow_bound_sign_follows_closing_speed(v, p_hat, v_hat):
    bound = flow_bound(v, p_hat, v_hat, LAW)
    if v_hat == 0:
        assert bound == 0.0
    elif abs(v_hat) < sys.float_info.min:
        # A subnormal closing speed can underflow the bound to a zero,
        # which still carries the sign.
        assert math.copysign(1.0, bound) == math.copysign(1.0, v_hat)
    elif v_hat > 0:
        assert bound > 0.0
    else:
        assert bound < 0.0


@given(v=speeds, p_hat=gaps, v_hat=st.floats(min_value=-10.0, max_value=10.0))
def test_flow_bound_agrees_with_partial_ratio(v, p_hat, v_hat):
    f_v, f_p = drag_partials(v, p_hat, LAW)
    expected = -f_p * v_hat / f_v
    bound = flow_bound(v, p_hat, v_hat, LAW)
    assert math.isclose(bound, expected, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("name", RUNS)
def test_no_decision_reads_c0(run_of, name):
    # flow_bound's ratio cancels c0 and safe_interval has no drag term, so
    # doubling c0 moves nothing the engine writes and scales the drag
    # exactly, a power of two being exact in every product.
    params = RUNS[name]
    base = run_of(params)
    doubled = run(with_law(params, c0=2.0 * params.drag.c0))
    assert written_bytes(doubled) == written_bytes(base)
    assert doubled.trajectory.physics().drag.tobytes() \
        == (2.0 * base.trajectory.physics().drag).tobytes()
    assert summarize(doubled)["total_drag_sq_integral"] \
        == 4.0 * summarize(base)["total_drag_sq_integral"]


@pytest.mark.parametrize("name", RUNS)
def test_without_a_wake_every_row_has_the_solo_drag(name):
    params = with_law(RUNS[name], c1=0.0)
    tr = run(params).trajectory
    v = np.array(tr.v)
    assert tr.physics().drag.tobytes() \
        == (params.drag.c0 * v * v).tobytes()
