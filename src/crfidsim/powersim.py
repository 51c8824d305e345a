"""Intermittent-power simulation for harvested-energy sessions.

The reservoir capacitor charges toward v_max with rate a = kappa/d^2
(1/ms) and drains a fixed amount per executed clock cycle, so during
execution dV/dt = a*(v_max - V) - drain. Both regimes have closed-form
exponential trajectories, and the 1.8 V crossing is solved exactly
rather than time-stepped. Each session draws its own kappa from a
log-normal spread; drawing by (seed, trial) keeps the draws common
across distance and sleep settings so trend comparisons are paired.

Cycle costs per protocol step (key derivation dominating at ~109k
cycles, tag computation scaling linearly with message bytes) match the
target MCU's measured execution load. The interleaved-execution mode
sleeps between subtasks with near-zero drain while charging continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

SLEEP_CHOICES = (0, 10, 20, 30)


@dataclass(frozen=True)
class ChargeModel:
    v_max: float = 3.0
    v_boot: float = 2.0
    v_min: float = 1.8
    clock_hz: int = 8_000_000
    drain_per_cycle: float = 3.3e-6      # volts per executed cycle
    kappa_median: float = 16.0
    kappa_sigma: float = 0.6

    def __post_init__(self) -> None:
        if not (0 < self.v_min < self.v_boot < self.v_max):
            raise ValueError("need 0 < v_min < v_boot < v_max")
        if self.clock_hz <= 0 or self.drain_per_cycle <= 0:
            raise ValueError("clock and drain must be positive")

    @property
    def cycles_per_ms(self) -> float:
        return self.clock_hz / 1000.0

    @property
    def drain_per_ms(self) -> float:
        return self.drain_per_cycle * self.cycles_per_ms

    def rate(self, kappa: float, distance_cm: float) -> float:
        if distance_cm <= 0:
            raise ValueError("distance must be positive")
        return kappa / distance_cm**2


DEFAULT_MODEL = ChargeModel()


def draw_kappa(model: ChargeModel, seed: int, trial: int) -> float:
    """Per-session harvest coefficient; paired across settings by (seed, trial)."""
    rng = np.random.default_rng([seed, trial])
    return model.kappa_median * math.exp(
        model.kappa_sigma * rng.standard_normal()
    )


@dataclass(frozen=True)
class CostTable:
    trng: int = 375
    puf_readout: int = 615
    temp_check: int = 734
    fe_gen: int = 109_234
    mac_per_240_bytes: int = 22_197
    frame_handling: int = 400

    def __post_init__(self) -> None:
        for name in ("trng", "puf_readout", "temp_check", "fe_gen",
                     "mac_per_240_bytes", "frame_handling"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} cost must be positive")

    def mac_cost(self, message_bytes: int) -> int:
        if message_bytes < 0:
            raise ValueError("negative message length")
        return max(1, round(self.mac_per_240_bytes * message_bytes / 240))


DEFAULT_COSTS = CostTable()


FE_GEN_SUBTASKS = 8          # key derivation checkpoints
MAC_OPS_PER_SUBTASK = 32     # AES blocks of the tag check per subtask


def split_subtasks(total_cycles: int, parts: int) -> tuple[int, ...]:
    """Near-equal integer split; parts sum to the total exactly."""
    if parts < 1 or total_cycles < parts:
        raise ValueError("cannot partition task")
    base, extra = divmod(total_cycles, parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))


@dataclass(frozen=True)
class EnergyState:
    v_cap: float
    distance_cm: float
    kappa: float
    model: ChargeModel = DEFAULT_MODEL
    time_ms: float = 0.0
    cycles_consumed: int = 0

    @property
    def rate(self) -> float:
        return self.model.rate(self.kappa, self.distance_cm)


@dataclass(frozen=True)
class Brownout:
    state: EnergyState
    cycles_executed: int


def charge(state: EnergyState, dt_ms: float) -> EnergyState:
    """Idle charging: exponential approach to v_max, zero drain."""
    if dt_ms < 0:
        raise ValueError("negative time")
    a = state.rate
    m = state.model
    if a == 0 or dt_ms == 0:
        return replace(state, time_ms=state.time_ms + dt_ms)
    v = m.v_max + (state.v_cap - m.v_max) * math.exp(-a * dt_ms)
    return replace(state, v_cap=v, time_ms=state.time_ms + dt_ms)


def time_to_voltage(state: EnergyState, v_target: float) -> float:
    """Idle-charging time to reach v_target; inf if unreachable."""
    if v_target <= state.v_cap:
        return 0.0
    a = state.rate
    m = state.model
    if a == 0 or v_target >= m.v_max:
        return math.inf
    return math.log((m.v_max - state.v_cap) / (m.v_max - v_target)) / a


def step(state: EnergyState, cycles: int) -> EnergyState | Brownout:
    """Execute cycles with concurrent harvesting; exact 1.8 V crossing."""
    if cycles < 0:
        raise ValueError("negative cycle count")
    m = state.model
    if state.v_cap < m.v_min:
        return Brownout(state=state, cycles_executed=0)
    if cycles == 0:
        return state
    a = state.rate
    t_exec = cycles / m.cycles_per_ms

    if a == 0:
        t_cross = (state.v_cap - m.v_min) / m.drain_per_ms
        if t_cross < t_exec:
            done = math.floor(t_cross * m.cycles_per_ms)
            out = replace(
                state,
                v_cap=m.v_min,
                time_ms=state.time_ms + t_cross,
                cycles_consumed=state.cycles_consumed + done,
            )
            return Brownout(state=out, cycles_executed=done)
        v = state.v_cap - m.drain_per_ms * t_exec
        return replace(state, v_cap=v, time_ms=state.time_ms + t_exec,
                       cycles_consumed=state.cycles_consumed + cycles)

    v_eq = m.v_max - m.drain_per_ms / a
    v_end = v_eq + (state.v_cap - v_eq) * math.exp(-a * t_exec)
    if v_eq < m.v_min and v_end < m.v_min:
        t_cross = math.log((state.v_cap - v_eq) / (m.v_min - v_eq)) / a
        done = math.floor(t_cross * m.cycles_per_ms)
        out = replace(
            state,
            v_cap=m.v_min,
            time_ms=state.time_ms + t_cross,
            cycles_consumed=state.cycles_consumed + done,
        )
        return Brownout(state=out, cycles_executed=done)
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


# Cold start: temperature gate, entropy, readout, key derivation, reply.
BOOT_OPS = (
    PlanOp("temp-check", DEFAULT_COSTS.temp_check),
    PlanOp("trng", DEFAULT_COSTS.trng),
    PlanOp("puf-readout", DEFAULT_COSTS.puf_readout),
    PlanOp("fe-gen", DEFAULT_COSTS.fe_gen, FE_GEN_SUBTASKS),
    PlanOp("reply", DEFAULT_COSTS.frame_handling),
)


def update_ops(image_bytes: int, chunk_frames: int) -> tuple[PlanOp, ...]:
    """Post-boot transfer work: frame handling plus the firmware tag check."""
    costs = DEFAULT_COSTS
    mac_cycles = costs.mac_cost(image_bytes + 16)
    aes_blocks = max(1, math.ceil((image_bytes + 16) / 16))
    mac_subtasks = max(1, math.ceil(aes_blocks / MAC_OPS_PER_SUBTASK))
    ops = [PlanOp("setup-frame", costs.frame_handling),
           PlanOp("auth-frame", costs.frame_handling)]
    ops += [PlanOp(f"chunk-{i}", costs.frame_handling) for i in range(chunk_frames)]
    ops.append(PlanOp("mac", mac_cycles, mac_subtasks))
    ops.append(PlanOp("commit", costs.frame_handling))
    return tuple(ops)


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
    if sleep_ms not in SLEEP_CHOICES:
        raise ValueError(f"sleep_ms must be one of {SLEEP_CHOICES}")
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
            exec_ms += cycles / state.model.cycles_per_ms
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
    extra_ops: Sequence[PlanOp] = (),
) -> RunResult:
    """Charge from empty, boot at 2.0 V, derive the key, send the first reply.

    Latency is measured from field-on (t = 0), so it includes the charge.
    """
    k = draw_kappa(DEFAULT_MODEL, seed, trial) if kappa is None else kappa
    state = EnergyState(v_cap=0.0, distance_cm=distance_cm, kappa=k)
    t_charge = time_to_voltage(state, DEFAULT_MODEL.v_boot)
    if math.isinf(t_charge):
        return RunResult(False, math.inf, state, failed_op="charge")
    state = charge(state, t_charge)
    _note(trace, state, "boot")
    res = run_ops(BOOT_OPS + tuple(extra_ops), sleep_ms, state, trace)
    return replace(res, latency_ms=res.state.time_ms)


def success_rate(distance_cm: float, sleep_ms: float, trials: int, seed: int) -> float:
    """Monte-Carlo cold-start success; kappa draws are paired across settings."""
    if trials < 1:
        raise ValueError("need at least one trial")
    wins = 0
    for trial in range(trials):
        wins += cold_start_session(distance_cm, sleep_ms, seed, trial=trial).success
    return wins / trials


def single_charge_budget(
    model: ChargeModel, distance_cm: float, kappa: float
) -> float:
    """Cycles executable from boot voltage until brownout; inf if sustainable."""
    a = model.rate(kappa, distance_cm)
    if a == 0:
        return (model.v_boot - model.v_min) / model.drain_per_cycle
    v_eq = model.v_max - model.drain_per_ms / a
    if v_eq >= model.v_min:
        return math.inf
    t_cross = math.log((model.v_boot - v_eq) / (model.v_min - v_eq)) / a
    return t_cross * model.cycles_per_ms


def sample_budgets(
    distance_cm: float,
    n: int,
    seed: int,
    model: ChargeModel = DEFAULT_MODEL,
) -> np.ndarray:
    return np.array([
        single_charge_budget(model, distance_cm, draw_kappa(model, seed, i))
        for i in range(n)
    ])


def trace_to_tsv(trace: Trace) -> str:
    lines = ["time_ms\tv_cap\tevent"]
    for t, v, event in trace:
        lines.append(f"{t:.6f}\t{v:.6f}\t{event}")
    return "\n".join(lines) + "\n"
