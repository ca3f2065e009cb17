"""Acceptance checks shared by the CLI verify command and the test suite.

Each check builds its own scenario against the public engine and the
kernels and reports one pass/fail result with a short detail line.
Checks that need the seeded open-highway corpus (the default scenario
run over many seeds) share one lazily built corpus so the expensive
runs happen once per process; the corpus keeps only the few figures
those checks read from each run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ._kernels_py import (advance, drag_force, drag_partials,
                          follower_decision, gap_allowance, safe_interval,
                          stopping_margin)
from .analysis import (brute_force_follower, consecutive_gap_excess,
                       in_formation, previous_rows)
from .core import SimParams, SimulationError, VehicleMode
from .sim import (EVENT_SPAWN, SimResult, WorldState, insert_vehicle, run,
                  step)
from .trajectory import pair_rows, trajectory_csv_blocks

N_CORPUS_SEEDS = 50
SPAWN_COUNT_BAND = (120.0, 155.0)
TARGET_INFLOW_PER_HOUR = 3500.0
INFLOW_TOLERANCE = 0.15
N_FEASIBILITY_EPISODES = 10_000
N_PURSUITS = 500
# A pursuit's follower starts at least this much above the speed floor.
PURSUIT_HEADROOM = 2.0
N_ORACLE_STATES = 10_000
EQUILIBRIUM_STEPS = 1000
N_DESCENT_SEEDS = 5
COMMAND_CEILING = 1e-12


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, slots=True)
class SeedSummary:
    """The figures the corpus checks read from one seeded run.

    ``worst_gap_excess`` is None when no step had two vehicles on the
    road, ``worst_command`` when every record was a recovering head.
    """

    spawned: int
    records: int
    worst_gap_excess: float | None
    gap_violations: int
    worst_command: float | None


def summarize_seed(result: SimResult) -> SeedSummary:
    """Fold one run into the figures the corpus checks aggregate."""
    tr = result.trajectory
    excess = consecutive_gap_excess(tr)
    accel = np.array(tr.accel)[np.array(tr.mode)
                               != VehicleMode.LEADER_RECOVERING]
    return SeedSummary(
        spawned=sum(e.kind == EVENT_SPAWN for e in result.events),
        records=len(tr),
        worst_gap_excess=float(excess.max()) if len(excess) else None,
        gap_violations=int((excess > gap_allowance(tr.params)).sum()),
        worst_command=float(accel.max()) if len(accel) else None,
    )


class RunCorpus:
    """Seeded default-scenario runs, built once and shared across checks.

    ``build`` folds each run into a ``SeedSummary`` as soon as it
    returns and drops the run, so memory holds one run at a time, not
    the whole corpus.  ``summaries`` maps seed to summary.  The first
    ``SimulationError`` stops the build, since no check reads past it.
    """

    def __init__(self, params: SimParams):
        self.params = params
        self.summaries: dict[int, SeedSummary] = {}
        self._built = False
        self._error: str | None = None

    def build(self) -> str | None:
        """Run the corpus once; ``"seed N: <message>"`` for the first
        seed whose run failed, or None when every seed ran."""
        if not self._built:
            self._built = True
            for seed in range(N_CORPUS_SEEDS):
                try:
                    self.summaries[seed] = summarize_seed(
                        run(replace(self.params, seed=seed)))
                except SimulationError as exc:
                    self._error = f"seed {seed}: {exc}"
                    break
        return self._error


def check_safety(params: SimParams, corpus: RunCorpus) -> CheckResult:
    """No recorded bumper gap may breach the envelope band plus one
    step of drift at top speed, across the whole seeded corpus."""
    err = corpus.build()
    name = "safety_50_seeds"
    if err is not None:
        return CheckResult(name, False, f"engine audit tripped, {err}")
    worst = -math.inf
    bad = 0
    for summary in corpus.summaries.values():
        if summary.worst_gap_excess is not None:
            worst = max(worst, summary.worst_gap_excess)
        bad += summary.gap_violations
    if worst == -math.inf:
        return CheckResult(name, False, (
            f"no step in {N_CORPUS_SEEDS} runs had two vehicles on the "
            f"road, so no gap was checked"))
    detail = (f"{bad} gap violations in {N_CORPUS_SEEDS} runs, worst "
              f"gap excess {worst:.4f} m, allowed "
              f"{gap_allowance(params):.4f} m")
    return CheckResult(name, bad == 0, detail)


def check_throughput(params: SimParams, corpus: RunCorpus) -> CheckResult:
    """Mean admitted-vehicle count over the corpus must sit in the
    reproduction band, with implied hourly inflow near the target."""
    err = corpus.build()
    name = "throughput_band"
    if err is not None:
        return CheckResult(name, False, f"corpus incomplete, {err}")
    if params.duration <= 0.0:
        return CheckResult(name, False, (
            f"run.duration is {params.duration:g} s, so no inflow per "
            f"hour can be measured"))
    counts = [summary.spawned for summary in corpus.summaries.values()]
    mean = sum(counts) / len(counts)
    inflow = mean / params.duration * 3600.0
    lo, hi = SPAWN_COUNT_BAND
    ok = (lo <= mean <= hi
          and abs(inflow - TARGET_INFLOW_PER_HOUR)
          <= INFLOW_TOLERANCE * TARGET_INFLOW_PER_HOUR)
    detail = (f"mean spawned {mean:.1f} in [{lo:g}, {hi:g}], implied "
              f"inflow {inflow:.0f} per hour vs {TARGET_INFLOW_PER_HOUR:.0f}")
    return CheckResult(name, ok, detail)


def check_recursive_feasibility(params: SimParams) -> CheckResult:
    """From any feasible state, a full-braking predecessor episode keeps
    the safe interval non-empty with a bounded per-step margin change."""
    name = "recursive_feasibility"
    rng = np.random.default_rng(90003)
    allowed_jump = 2.0 * params.a_max * params.dt + 1e-9
    worst_jump = 0.0
    for episode in range(N_FEASIBILITY_EPISODES):
        # The margin is conserved along the worst-case flow only for a
        # follower at least as fast as its predecessor; slower followers
        # fall under the plain gap surrogate instead.
        a_draw = float(rng.uniform(params.v_min, params.v_max))
        b_draw = float(rng.uniform(params.v_min, params.v_max))
        v = max(a_draw, b_draw)
        v_pred = min(a_draw, b_draw)
        v_hat = v - v_pred
        kin = stopping_margin(v, -params.delta, v_hat, params)
        p_hat = -params.delta - max(kin, 0.0) - float(rng.uniform(0.5, 50.0))
        # The ego starts at p_hat, its predecessor at 0.
        p, p_pred = p_hat, 0.0
        floored = 0
        # The margin of the state each step starts from.
        g = stopping_margin(v, p_hat, v_hat, params)
        for _ in range(80):
            pred_cmd = params.a_min if v_pred > params.v_min else 0.0
            lo, hi, _, _ = safe_interval(v, p_hat, v_hat, pred_cmd, params)
            if lo > hi:
                return CheckResult(name, False, (
                    f"episode {episode}: empty safe interval at v={v:.3f}, "
                    f"p_hat={p_hat:.3f}, v_hat={v_hat:.3f}"
                ))
            p, v = advance(p, v, params.a_min, params)
            p_pred, v_pred = advance(p_pred, v_pred, pred_cmd, params)
            p_hat = p - p_pred
            v_hat = v - v_pred
            g_pre, g = g, stopping_margin(v, p_hat, v_hat, params)
            jump = abs(g - g_pre)
            if jump > worst_jump:
                worst_jump = jump
            if jump > allowed_jump:
                return CheckResult(name, False, (
                    f"episode {episode}: margin jumped {jump:.4f} m in one "
                    f"step, allowed {allowed_jump:.4f} m"
                ))
            if v <= params.v_min and v_pred <= params.v_min:
                floored += 1
                if floored >= 3:
                    break
    detail = (f"{N_FEASIBILITY_EPISODES} braking episodes, interval never "
              f"empty, worst margin step {worst_jump:.4f} m of "
              f"{allowed_jump:.4f} m allowed")
    return CheckResult(name, True, detail)


def check_braking_only(params: SimParams, corpus: RunCorpus) -> CheckResult:
    """Only a head recovering its deadline may ever accelerate."""
    err = corpus.build()
    name = "braking_only_commands"
    if err is not None:
        return CheckResult(name, False, f"corpus incomplete, {err}")
    worst = -math.inf
    total = 0
    for summary in corpus.summaries.values():
        total += summary.records
        if summary.worst_command is not None:
            worst = max(worst, summary.worst_command)
    if worst == -math.inf:
        return CheckResult(name, False, (
            f"no command outside a recovering head in {total} records, "
            f"so no command was checked"))
    ok = worst <= COMMAND_CEILING
    detail = (f"max non-recovering command {worst:.3e} over {total} records, "
              f"allowed {COMMAND_CEILING:.0e}")
    return CheckResult(name, ok, detail)


def check_pursuit_convergence(params: SimParams) -> CheckResult:
    """A faster follower behind a cruising-down head always settles to
    the target gap and speed without overshooting into falling back."""
    name = "pursuit_convergence"
    if params.v_max < params.v_min + PURSUIT_HEADROOM:
        return CheckResult(name, False, (
            f"speed box [{params.v_min:g}, {params.v_max:g}] m/s is "
            f"narrower than the {PURSUIT_HEADROOM:g} m/s a pursuit's "
            f"follower needs above the floor"))
    rng = np.random.default_rng(90005)
    p5 = replace(params, duration=75.0)
    n_steps = round(p5.duration / p5.dt)
    undershoot_floor = -(params.eps_platoon_speed + 1e-9)
    # The exit lies far beyond any pursuit, whatever the road's length.
    exit_pos = 1e9
    slowest = 0.0
    for scenario in range(N_PURSUITS):
        v_f = float(rng.uniform(params.v_min + PURSUIT_HEADROOM,
                                params.v_max))
        v_p = float(rng.uniform(params.v_min, v_f - 0.5))
        v_hat = v_f - v_p
        kin = stopping_margin(v_f, -params.delta, v_hat, params)
        gap = params.delta + max(kin, 0.0) + float(rng.uniform(1.0, 40.0))
        world = WorldState.initial(p5, spawning=False)
        insert_vehicle(world, 160.0, v_p, exit_pos=exit_pos,
                       deadline=10.0 * (exit_pos - 160.0) / v_p)
        insert_vehicle(world, 160.0 - gap, v_f, exit_pos=exit_pos,
                       deadline=10.0 * (exit_pos - 160.0 + gap) / v_f)
        formed_at = None
        for _ in range(n_steps):
            try:
                step(world)
            except SimulationError as exc:
                return CheckResult(name, False, (
                    f"engine audit tripped, scenario {scenario}: {exc}"))
            if len(world.vehicles) != 2:
                return CheckResult(name, False, (
                    f"scenario {scenario}: vehicle count changed at "
                    f"t={world.t:.1f}"
                ))
            front, back = world.vehicles
            v_rel = back.v - front.v
            if v_rel < undershoot_floor:
                return CheckResult(name, False, (
                    f"scenario {scenario}: fell back at {v_rel:.4f} m/s "
                    f"(t={world.t:.1f})"
                ))
            if in_formation(front.p, front.v, back.p, back.v, params):
                formed_at = world.t
                break
        if formed_at is None:
            return CheckResult(name, False, (
                f"scenario {scenario}: no formation within "
                f"{p5.duration:g} s (v_f={v_f:.2f}, v_p={v_p:.2f}, "
                f"gap={gap:.1f})"
            ))
        if formed_at > slowest:
            slowest = formed_at
    detail = (f"{N_PURSUITS} pursuits formed, slowest in {slowest:.1f} s, "
              f"no fallback beyond {-undershoot_floor:.2f} m/s")
    return CheckResult(name, True, detail)


def check_equilibrium_hold(params: SimParams) -> CheckResult:
    """A formed pair at the floor speed and target gap is an exact fixed
    point: no commands, no speed drift, no gap drift."""
    name = "equilibrium_hold"
    p6 = replace(params, duration=EQUILIBRIUM_STEPS * params.dt)
    world = WorldState.initial(p6, spawning=False)
    insert_vehicle(world, 100.0, params.v_min, exit_pos=1e9, deadline=1e9)
    insert_vehicle(world, 100.0 - params.delta, params.v_min,
                   exit_pos=1e9, deadline=1e9)
    try:
        tr = run(p6, world=world).trajectory
    except SimulationError as exc:
        return CheckResult(name, False, f"engine audit tripped, {exc}")
    worst_a = float(np.abs(np.array(tr.accel)).max())
    worst_v = float(np.abs(np.array(tr.v) - params.v_min).max())
    worst_gap = float(np.abs(consecutive_gap_excess(tr)).max(initial=0.0))
    ok = worst_a <= 1e-9 and worst_v <= 1e-6 and worst_gap <= 1e-6
    detail = (f"{EQUILIBRIUM_STEPS} steps: max command {worst_a:.1e} "
              f"(allow 1e-09), speed drift {worst_v:.1e} and gap drift "
              f"{worst_gap:.1e} (allow 1e-06)")
    return CheckResult(name, ok, detail)


def check_solver_oracle(params: SimParams) -> CheckResult:
    """The closed-form follower solve must match a dense grid search in
    both the command and the infeasibility classification."""
    name = "solver_matches_grid_oracle"
    rng = np.random.default_rng(90007)
    tol = (params.a_max - params.a_min) / 1e4 + 1e-12
    worst = 0.0
    for i in range(N_ORACLE_STATES):
        pick = rng.random()
        if pick < 0.15:
            v = params.v_min
        elif pick < 0.30:
            v = params.v_max
        else:
            v = float(rng.uniform(params.v_min, params.v_max))
        v_pred = float(rng.uniform(params.v_min, params.v_max))
        v_hat = v - v_pred
        pred_accel = float(rng.uniform(params.a_min, params.a_max))
        deadline_active = bool(rng.random() < 0.4)
        kin = stopping_margin(v, -params.delta, v_hat, params)
        p_hat = float(rng.uniform(-40.0, 2.0)) - params.delta - kin
        accel, verdict = follower_decision(v, p_hat, v_hat, pred_accel,
                                           deadline_active, params)[:2]
        ref_accel, ref_verdict = brute_force_follower(
            v, p_hat, v_hat, pred_accel, deadline_active, params)
        if verdict is not ref_verdict:
            return CheckResult(name, False, (
                f"state {i}: verdict {verdict.name} vs grid "
                f"{ref_verdict.name} at v={v:.3f}, p_hat={p_hat:.3f}, "
                f"v_hat={v_hat:.3f}, pred_accel={pred_accel:.3f}, "
                f"deadline={deadline_active}"
            ))
        if ref_accel is not None:
            diff = abs(accel - ref_accel)
            if diff > worst:
                worst = diff
            if diff > tol:
                return CheckResult(name, False, (
                    f"state {i}: command {accel:.6f} vs grid "
                    f"{ref_accel:.6f} (diff {diff:.2e}, allowed {tol:.2e})"
                ))
    detail = (f"{N_ORACLE_STATES} states, verdicts identical, worst "
              f"command gap {worst:.2e} of {tol:.2e} allowed")
    return CheckResult(name, True, detail)


def _drag_descent_seed(params: SimParams,
                       allowed: float) -> tuple[int, float, str | None]:
    """Follower step pairs, worst F^2 rise, and the failure detail of the
    first rise beyond ``allowed`` (None when there is none) of one run.

    Each row's previous row is found before the physics is computed,
    and the trajectory is dropped once the columns the pairing reads
    are copied out, so the pairing's temporaries never share
    memory with the run, and the next seed's run never shares it with
    anything of this one.
    """
    tr = run(params).trajectory
    last = previous_rows(tr)
    drag = tr.physics().drag
    offsets = np.array(tr.offsets)
    vid = np.array(tr.vehicle_id)
    mode = np.array(tr.mode)
    times = np.array(tr.times)
    del tr
    back = pair_rows(offsets)
    has_ahead = np.zeros(len(vid), np.bool_)
    has_ahead[back] = True
    # Follower rows whose previous row had the same vehicle ahead.  A
    # vehicle is stored at every step it is on the road, so its previous
    # row is always in the step before.
    back = back[mode[back] == VehicleMode.FOLLOWER]
    prev = last[back]
    keep = ((prev >= 0) & has_ahead[prev] & (vid[prev - 1] == vid[back - 1]))
    back, prev = back[keep], prev[keep]
    rise = drag[back] ** 2 - drag[prev] ** 2
    over = np.flatnonzero(rise > allowed)
    failure = None
    if len(over):
        i = back[over[0]]
        t = times[np.searchsorted(offsets, i, side="right") - 1]
        failure = (f"seed {params.seed}: F^2 rose {rise[over[0]]:.3e} in one "
                   f"step for vehicle {vid[i]} at t={t:.1f} "
                   f"(allowed {allowed:.3e})")
    return len(rise), rise.max(initial=-math.inf), failure


def check_drag_descent(params: SimParams) -> CheckResult:
    """With deadlines off, each follower's squared drag force never grows
    across one step beyond the second-order discretisation slack."""
    name = "drag_descent_per_step"
    c = 8.0 * params.a_max * params.drag.c0 ** 2 * params.v_max ** 3
    allowed = c * params.dt * params.dt + 1e-12
    worst = -math.inf
    pairs = 0
    for offset in range(N_DESCENT_SEEDS):
        p8 = replace(params, seed=7000 + offset, enforce_deadlines=False)
        try:
            seed_pairs, seed_worst, failure = _drag_descent_seed(p8, allowed)
        except SimulationError as exc:
            return CheckResult(name, False, (
                f"engine audit tripped, seed {p8.seed}: {exc}"))
        if failure is not None:
            return CheckResult(name, False, failure)
        pairs += seed_pairs
        worst = max(worst, seed_worst)
    if not pairs:
        return CheckResult(name, False, (
            f"no follower step pairs in {N_DESCENT_SEEDS} deadline-free "
            f"runs, so no drag rise was checked"))
    detail = (f"{pairs} follower step pairs over {N_DESCENT_SEEDS} "
              f"deadline-free runs, worst F^2 rise {worst:.3e} of "
              f"{allowed:.3e} allowed")
    return CheckResult(name, True, detail)


def check_determinism(params: SimParams) -> CheckResult:
    """Identical config and seed must reproduce the trajectory CSV byte
    for byte.

    The first run's CSV is folded into a SHA-256 digest and byte count
    per block of ``trajectory_csv_blocks``, and the run is dropped
    before the second one starts, so only one run is ever alive.  The
    check fails on unequal step counts or on the first block of the
    second run whose range or digest differs.  Neither CSV is ever held
    whole, and the detail counts the encoded bytes of every block.
    """
    name = "determinism_bytes"
    try:
        first = run(params).trajectory
        if not len(first):
            return CheckResult(name, False, (
                "the seeded run recorded no rows, so there were no bytes "
                "to compare"))
        n_steps = len(first.times)
        blocks = [(start, stop, hashlib.sha256(data).digest(), len(data))
                  for start, stop, text in trajectory_csv_blocks(first)
                  for data in [text.encode()]]
        del first
        second = run(params).trajectory
    except SimulationError as exc:
        return CheckResult(name, False, (
            f"engine audit tripped, seed {params.seed}: {exc}"))
    if len(second.times) != n_steps:
        return CheckResult(name, False, (
            f"two seeded runs, {n_steps} and {len(second.times)} steps"))
    for (start, stop, digest, _), (*again, text) in zip(
            blocks, trajectory_csv_blocks(second)):
        if (again != [start, stop]
                or hashlib.sha256(text.encode()).digest() != digest):
            return CheckResult(name, False, (
                f"two seeded runs, CSV bytes differ in steps {start}:{stop} "
                f"of {n_steps}"))
    size = sum(n_bytes for _, _, _, n_bytes in blocks)
    return CheckResult(name, True,
                       f"two seeded runs, {size} CSV bytes identical")


def _partial_error(fd: float, exact: float) -> float:
    """Relative error of a finite difference, absolute where the
    analytic partial is exactly 0 (the wake partial at ``c1 == 0``)."""
    if exact == 0.0:
        return abs(fd - exact)
    return abs(fd - exact) / abs(exact)


def check_partials(params: SimParams) -> CheckResult:
    """Analytic drag partials must match central finite differences."""
    name = "partials_match_finite_difference"
    law = params.drag
    h = 1e-5
    rel_tol = 1e-6
    worst = 0.0
    for v in np.linspace(params.v_min, params.v_max, 50):
        v = float(v)
        for p_hat in np.linspace(-40.0, -1.0, 50):
            p_hat = float(p_hat)
            f_v, f_p = drag_partials(v, p_hat, law)
            fd_v = (drag_force(v + h, p_hat, law)
                    - drag_force(v - h, p_hat, law)) / (2.0 * h)
            fd_p = (drag_force(v, p_hat + h, law)
                    - drag_force(v, p_hat - h, law)) / (2.0 * h)
            err = max(_partial_error(fd_v, f_v), _partial_error(fd_p, f_p))
            if err > worst:
                worst = err
    ok = worst <= rel_tol
    detail = (f"50x50 grid, worst relative error {worst:.2e} of "
              f"{rel_tol:.0e} allowed")
    return CheckResult(name, ok, detail)


def run_all(params: SimParams) -> Iterator[CheckResult]:
    """Yield every acceptance check result, corpus runs shared."""
    corpus = RunCorpus(params)
    yield check_safety(params, corpus)
    yield check_throughput(params, corpus)
    yield check_recursive_feasibility(params)
    yield check_braking_only(params, corpus)
    yield check_pursuit_convergence(params)
    yield check_equilibrium_hold(params)
    yield check_solver_oracle(params)
    yield check_drag_descent(params)
    yield check_determinism(params)
    yield check_partials(params)
