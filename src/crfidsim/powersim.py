"""Intermittent-power simulation for harvested-energy sessions.

The reservoir capacitor charges toward V_MAX with rate a = kappa/d^2
(1/ms) and drains a fixed amount per executed clock cycle, so during
execution dV/dt = a*(V_MAX - V) - drain. Both regimes have closed-form
exponential trajectories, and the 1.8 V crossing is solved exactly
rather than time-stepped. Each session draws its own kappa from a
log-normal spread; drawing by (seed, trial) keeps the draws common
across distance and sleep settings so trend comparisons are paired.
Success is monotone in a, so a cold start succeeds exactly when a
reaches its sleep setting's critical rate, and sweeps compare each draw
with that rate instead of simulating it.

Cycle costs per protocol step (key derivation dominating at ~109k
cycles, tag computation scaling linearly with message bytes) match the
target MCU's measured execution load. The model and the costs describe
the one target token, so they are module constants. The interleaved-
execution mode sleeps between subtasks with near-zero drain while
charging continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

SLEEP_CHOICES = (0, 10, 20, 30)


# Charge model: capacitor window, MCU clock and harvest spread
V_MAX = 3.0
V_BOOT = 2.0
V_MIN = 1.8
CYCLES_PER_MS = 8_000_000 / 1000.0   # 8 MHz clock
DRAIN_PER_CYCLE = 3.3e-6             # volts per executed cycle
DRAIN_PER_MS = DRAIN_PER_CYCLE * CYCLES_PER_MS
KAPPA_MEDIAN = 16.0
KAPPA_SIGMA = 0.6

# Cycle costs per protocol step
TRNG_CYCLES = 375
PUF_READOUT_CYCLES = 615
TEMP_CHECK_CYCLES = 734
FE_GEN_CYCLES = 109_234
MAC_CYCLES_PER_240_BYTES = 22_197
FRAME_CYCLES = 400
FE_GEN_SUBTASKS = 8          # key derivation checkpoints
MAC_OPS_PER_SUBTASK = 32     # AES blocks of the tag check per subtask


def mac_cost(message_bytes: int) -> int:
    if message_bytes < 0:
        raise ValueError("negative message length")
    return max(1, round(MAC_CYCLES_PER_240_BYTES * message_bytes / 240))


def _harvest_rate(kappa: float, distance_cm: float) -> float:
    # written as "not >" so that NaN fails too
    if not distance_cm > 0:
        raise ValueError("distance must be positive")
    if not kappa >= 0:
        raise ValueError("kappa must be non-negative")
    try:
        square = distance_cm**2
    except OverflowError:           # no harvest at all
        return 0.0
    if square == 0.0:               # underflow: harvest without bound
        return math.inf if kappa > 0 else 0.0
    return kappa / square


def draw_kappa(seed: int, trial: int) -> float:
    """Per-session harvest coefficient; paired across settings by (seed, trial)."""
    rng = np.random.default_rng([seed, trial])
    return KAPPA_MEDIAN * math.exp(KAPPA_SIGMA * rng.standard_normal())


def split_subtasks(total_cycles: int, parts: int) -> tuple[int, ...]:
    """Near-equal integer split; parts sum to the total exactly."""
    if parts < 1 or total_cycles < parts:
        raise ValueError("cannot partition task")
    base, extra = divmod(total_cycles, parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))


@dataclass(frozen=True)
class EnergyState:
    v_cap: float
    rate: float                 # harvest rate a = kappa/d^2 (1/ms)
    time_ms: float = 0.0
    cycles_consumed: int = 0


@dataclass(frozen=True)
class Brownout:
    state: EnergyState
    cycles_executed: int


def charge(state: EnergyState, dt_ms: float) -> EnergyState:
    """Idle charging: exponential approach to V_MAX, zero drain.

    A harvest rate that overflows to inf fills the capacitor at once.
    """
    if dt_ms < 0:
        raise ValueError("negative time")
    a = state.rate
    if math.isinf(a):
        return replace(state, v_cap=V_MAX, time_ms=state.time_ms + dt_ms)
    if a == 0 or dt_ms == 0:
        return replace(state, time_ms=state.time_ms + dt_ms)
    v = V_MAX + (state.v_cap - V_MAX) * math.exp(-a * dt_ms)
    return replace(state, v_cap=v, time_ms=state.time_ms + dt_ms)


def time_to_voltage(state: EnergyState, v_target: float) -> float:
    """Idle-charging time to reach v_target; inf if unreachable."""
    if v_target <= state.v_cap:
        return 0.0
    a = state.rate
    if a == 0 or v_target >= V_MAX:
        return math.inf
    return math.log((V_MAX - state.v_cap) / (V_MAX - v_target)) / a


def _brownout(state: EnergyState, t_cross: float) -> Brownout:
    done = math.floor(t_cross * CYCLES_PER_MS)
    out = replace(
        state,
        v_cap=V_MIN,
        time_ms=state.time_ms + t_cross,
        cycles_consumed=state.cycles_consumed + done,
    )
    return Brownout(state=out, cycles_executed=done)


def step(state: EnergyState, cycles: int) -> EnergyState | Brownout:
    """Execute cycles with concurrent harvesting; exact 1.8 V crossing."""
    if cycles < 0:
        raise ValueError("negative cycle count")
    if state.v_cap < V_MIN:
        return Brownout(state=state, cycles_executed=0)
    if cycles == 0:
        return state
    a = state.rate
    t_exec = cycles / CYCLES_PER_MS

    if a == 0:
        t_cross = (state.v_cap - V_MIN) / DRAIN_PER_MS
        if t_cross < t_exec:
            return _brownout(state, t_cross)
        v = state.v_cap - DRAIN_PER_MS * t_exec
        return replace(state, v_cap=v, time_ms=state.time_ms + t_exec,
                       cycles_consumed=state.cycles_consumed + cycles)

    v_eq = V_MAX - DRAIN_PER_MS / a
    v_end = v_eq + (state.v_cap - v_eq) * math.exp(-a * t_exec)
    if v_eq < V_MIN and v_end < V_MIN:
        t_cross = math.log((state.v_cap - v_eq) / (V_MIN - v_eq)) / a
        return _brownout(state, t_cross)
    return replace(state, v_cap=v_end, time_ms=state.time_ms + t_exec,
                   cycles_consumed=state.cycles_consumed + cycles)


@dataclass(frozen=True)
class RunResult:
    success: bool
    latency_ms: float
    state: EnergyState
    failed_op: str | None = None
    sleeps: int = 0


Trace = list[tuple[float, float, str]]


def _note(trace: Trace | None, state: EnergyState, event: str) -> None:
    if trace is not None:
        trace.append((state.time_ms, state.v_cap, event))


@dataclass(frozen=True)
class PlanOp:
    name: str
    cycles: int
    subtasks: int = 1


# The one table of op costs: protocol.TokenSim charges these for the work
# it does, and a cold start runs BOOT_OPS.
TEMP_CHECK = PlanOp("temp-check", TEMP_CHECK_CYCLES)
TRNG = PlanOp("trng", TRNG_CYCLES)
PUF_READOUT = PlanOp("puf-readout", PUF_READOUT_CYCLES)
FE_GEN = PlanOp("fe-gen", FE_GEN_CYCLES, FE_GEN_SUBTASKS)
FRAME = PlanOp("frame", FRAME_CYCLES)
UPDATE_BOOT_OPS = (TEMP_CHECK, TRNG, PUF_READOUT, FE_GEN)

# Cold start: an update boot, then its first reply.
BOOT_OPS = UPDATE_BOOT_OPS + (PlanOp("reply", FRAME_CYCLES),)


def mac_op(message_bytes: int) -> PlanOp:
    """The tag check over message_bytes, MAC_OPS_PER_SUBTASK AES blocks a subtask."""
    subtasks = math.ceil(message_bytes / (16 * MAC_OPS_PER_SUBTASK))
    return PlanOp("mac", mac_cost(message_bytes), subtasks)


@dataclass(frozen=True)
class Harvest:
    """A powered token's supply: reader distance, checkpoint sleep, kappa."""

    distance_cm: float
    sleep_ms: float
    kappa: float

    @property
    def rate(self) -> float:
        return _harvest_rate(self.kappa, self.distance_cm)


def _check_sleep(sleep_ms: float) -> None:
    if sleep_ms not in SLEEP_CHOICES:
        raise ValueError(f"sleep_ms must be one of {SLEEP_CHOICES}")


def run_ops(
    ops: Sequence[PlanOp],
    sleep_ms: float,
    state: EnergyState,
    trace: Trace | None = None,
) -> RunResult:
    """Run each op as an exact partition of subtasks, sleeping between them.

    The token sleeps sleep_ms (charging, zero drain) before every subtask
    but the first. On success, latency is execution time plus
    sleeps * sleep_ms, with the execution term accumulated identically
    across sleep settings, so latency(sleep) == latency(0) + sleeps * sleep
    holds bit for bit. On a brownout, latency is the time elapsed and
    failed_op names the op that browned out.
    """
    _check_sleep(sleep_ms)
    t0 = state.time_ms
    exec_ms = 0.0
    sleeps = 0
    first = True
    for op in ops:
        parts = split_subtasks(op.cycles, op.subtasks)
        for i, cycles in enumerate(parts, 1):
            if sleep_ms and not first:
                state = charge(state, sleep_ms)
                sleeps += 1
                _note(trace, state, "wake")
            first = False
            out = step(state, cycles)
            if isinstance(out, Brownout):
                _note(trace, out.state, f"brownout:{op.name}")
                return RunResult(False, out.state.time_ms - t0, out.state,
                                 op.name, sleeps)
            exec_ms += cycles / CYCLES_PER_MS
            state = out
            _note(trace, state, f"{op.name}[{i}/{len(parts)}]")
    return RunResult(True, exec_ms + sleeps * sleep_ms, state, sleeps=sleeps)


def cold_start_session(
    distance_cm: float,
    sleep_ms: float,
    seed: int,
    trial: int = 0,
    kappa: float | None = None,
    trace: Trace | None = None,
) -> RunResult:
    """Charge from empty, boot at 2.0 V, derive the key, send the first reply.

    Latency is measured from field-on (t = 0), so it includes the charge.
    """
    k = draw_kappa(seed, trial) if kappa is None else kappa
    state = EnergyState(v_cap=0.0, rate=_harvest_rate(k, distance_cm))
    t_charge = time_to_voltage(state, V_BOOT)
    if math.isinf(t_charge):
        return RunResult(False, math.inf, state, failed_op="charge")
    state = charge(state, t_charge)
    _note(trace, state, "boot")
    res = run_ops(BOOT_OPS, sleep_ms, state, trace)
    return replace(res, latency_ms=res.state.time_ms)


# Relative half-width of the band around critical_rate whose trials are
# simulated instead of decided by comparison; the bisection brackets the
# threshold four orders of magnitude tighter.
CRITICAL_MARGIN = 1e-9
_BISECT_WIDTH = 1e-13


@lru_cache(maxsize=len(SLEEP_CHOICES))
def critical_rate(sleep_ms: float) -> float:
    """Least harvest rate a* (1/ms) at which a cold start survives BOOT_OPS.

    Success is monotone in a = kappa/d^2: during execution
    dV/dt = a*(V_MAX - V) - drain and idle charging has no drain, so a
    larger a never lowers the voltage path, and a session browns out only
    when that path ends a step below V_MIN. A session at distance 1 runs at
    exactly the float kappa, so bisection on it brackets a* from above to a
    relative width of _BISECT_WIDTH. A rate of 1/ms survives every sleep
    setting, so [0, 1] brackets a* from the start.
    """
    _check_sleep(sleep_ms)

    def survives(a: float) -> bool:
        return cold_start_session(1.0, sleep_ms, 0, kappa=a).success

    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if survives(mid):
            hi = mid
        else:
            lo = mid
    return hi


def success_rate(distance_cm: float, sleep_ms: float, trials: int, seed: int) -> float:
    """Monte-Carlo cold-start success; kappa draws are paired across settings.

    Each trial compares its harvest rate with critical_rate(sleep_ms). A
    rate within CRITICAL_MARGIN of it is simulated with cold_start_session,
    so every decision equals the simulated session's.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _harvest_rate(0.0, distance_cm)   # reject a bad distance before any trial
    a_star = critical_rate(sleep_ms)  # and a bad sleep
    lo, hi = a_star * (1 - CRITICAL_MARGIN), a_star * (1 + CRITICAL_MARGIN)
    wins = 0
    for trial in range(trials):
        kappa = draw_kappa(seed, trial)
        a = _harvest_rate(kappa, distance_cm)
        if lo < a < hi:
            wins += cold_start_session(distance_cm, sleep_ms, seed, trial,
                                       kappa).success
        else:
            wins += a >= hi
    return wins / trials


def success_prob(distance_cm: float, sleep_ms: float) -> float:
    """Closed-form cold-start success: P(kappa/d^2 >= a*) for log-normal kappa.

    1 - Phi(ln(a* d^2 / KAPPA_MEDIAN) / KAPPA_SIGMA), the limit of
    success_rate as trials grow: 1 where a* d^2 / KAPPA_MEDIAN underflows
    to 0, and 0 where d^2 overflows.
    """
    _harvest_rate(0.0, distance_cm)   # reject a bad distance
    a_star = critical_rate(sleep_ms)
    try:
        ratio = a_star * distance_cm**2 / KAPPA_MEDIAN
    except OverflowError:
        return 0.0
    z = math.log(ratio) / KAPPA_SIGMA if ratio else -math.inf
    return 0.5 * math.erfc(z / math.sqrt(2))


def single_charge_budget(distance_cm: float, kappa: float) -> float:
    """Cycles executable from boot voltage until brownout; inf if sustainable."""
    a = _harvest_rate(kappa, distance_cm)
    if a == 0:
        return (V_BOOT - V_MIN) / DRAIN_PER_CYCLE
    v_eq = V_MAX - DRAIN_PER_MS / a
    if v_eq >= V_MIN:
        return math.inf
    t_cross = math.log((V_BOOT - v_eq) / (V_MIN - v_eq)) / a
    return t_cross * CYCLES_PER_MS


def sample_budgets(distance_cm: float, n: int, seed: int) -> np.ndarray:
    return np.array([
        single_charge_budget(distance_cm, draw_kappa(seed, i)) for i in range(n)
    ])


def trace_to_tsv(trace: Trace) -> str:
    lines = ["time_ms\tv_cap\tevent"]
    for t, v, event in trace:
        lines.append(f"{t:.6f}\t{v:.6f}\t{event}")
    return "\n".join(lines) + "\n"
