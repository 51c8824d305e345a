"""The four campaign workloads: inputs from a seed, one unit of work, its check.

Every workload is one caller in a closed loop: the next unit starts when
the previous one returns. A unit is the smallest piece of work the
benchmark times and checks:

- update-clean / update-tamper: one `prover_update` session, 1 op;
- mc-keyfail: one `mc_key_failure` call, `sessions_per_call` ops;
- power-sweep: one `success_rate` call per cell of the distance x sleep
  grid, one op per simulated cold-start session.

Inputs come from numpy generators keyed by (seed, workload, stream), so
the same seed gives the same inputs; the library receives only those
inputs. The "main" stream feeds the measured run; a traced run adds a
"warmup" unit and an untraced comparison window from the "overhead"
stream, so that a cache filled by one window cannot serve the other.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from crfidsim import enroll, fuzzy, gen2, powersim, protocol, puf
from crfidsim.layout import DEFAULT_LAYOUT

STREAMS = {"main": 0, "overhead": 1, "warmup": 2}


@dataclass
class UnitResult:
    ops: int
    failed: int
    latencies: list[float]          # seconds, one per session in the unit
    record: dict = field(default_factory=dict)


class Workload:
    """One workload of the benchmark.

    Subclasses set name, key (their input-stream id), window (the units
    whose records form the fingerprint, and the length of a traced run),
    unit_ops and traffic_keys (record fields kept past the window), and
    define build() -> ctx, inputs(stream), run(ctx, inp) -> UnitResult
    and summarize(window, records) -> (fingerprint, traffic).
    """

    traffic_keys: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def final_check(self, ctx, window: list[dict]) -> int:
        """Failed ops that only a look at the whole window can find."""
        return 0


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def digest(obj) -> str:
    """Short stable hash of a JSON-serialisable value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _app_with(image: protocol.FirmwareImage) -> bytes:
    app = bytearray(DEFAULT_LAYOUT.app_bytes)
    data = image.assemble()
    app[: len(data)] = data
    return bytes(app)


def _boot_repeat_share(records: list[dict]) -> float:
    """Share of token boots whose (device, temperature) pair already booted."""
    seen: set = set()
    boots = repeats = 0
    for rec in records:
        if "boots" not in rec:
            continue
        pair = (rec["device"], rec["temperature"])
        boots += rec["boots"]
        repeats += rec["boots"] - (pair not in seen)
        seen.add(pair)
    return repeats / boots if boots else 0.0


def _session_fingerprint(records: list[dict], keys: tuple[str, ...]) -> dict:
    rows = [[rec.get(k) for k in keys] for rec in records]
    return {
        "sessions": len(records),
        "outcomes": dict(Counter(rec.get("outcome", "error") for rec in records)),
        "boots_per_session": dict(Counter(str(rec.get("boots")) for rec in records)),
        "frames_per_session": dict(Counter(str(rec.get("frames")) for rec in records)),
        "per_session_sha256": digest(rows),
    }


# ------------------------------------------------------------ update-clean

def clean_session_ok(outcome: protocol.UpdateOutcome, app: bytes, expected: bytes) -> bool:
    """update-clean check: the session committed and the app area holds the image."""
    return outcome is protocol.UpdateOutcome.COMMITTED and app == expected


@dataclass
class Fleet:
    devices: list[puf.PufDevice]
    records: list[enroll.EnrollmentRecord]
    db: protocol.ProverDb
    images: dict[str, protocol.FirmwareImage]
    expected: dict[str, bytes]


def build_fleet(device_seeds: list[int], image_names: tuple[str, ...]) -> Fleet:
    devices = [puf.synth_device(seed=s) for s in device_seeds]
    records = [enroll.enroll_device(d, f"dev-{j}") for j, d in enumerate(devices)]
    db = protocol.ProverDb()
    for rec in records:
        db.add(rec)
    demo = protocol.demo_images()
    images = {n: demo[n] for n in image_names}
    return Fleet(devices, records, db, images,
                 {n: _app_with(img) for n, img in images.items()})


class UpdateClean(Workload):
    """Untampered sessions: random device, image and continuous temperature."""

    name = "update-clean"
    key = 1
    window = 300
    unit_ops = 1
    traffic_keys = ("device", "image", "temperature", "boots")
    fleet_size = 8
    image_names = ("blinky", "sense", "boot-shim")
    channel_factory: Callable[[protocol.TokenSim], protocol.Channel] = protocol.Channel

    def build(self) -> Fleet:
        seeds = _rng(self.seed, self.key, 100).integers(0, 2**31, self.fleet_size)
        return build_fleet([int(s) for s in seeds], self.image_names)

    def inputs(self, stream: str) -> Iterator[dict]:
        rng = _rng(self.seed, self.key, STREAMS[stream])
        i = 0
        while True:
            # each block of three sessions pushes every image once, so the
            # image-size mix is the same for every seed and run length
            for image in rng.permutation(self.image_names):
                i += 1
                yield {
                    "device": int(rng.integers(self.fleet_size)),
                    "image": str(image),
                    "temperature": float(rng.uniform(protocol.TEMP_LEGAL_MIN,
                                                     protocol.TEMP_LEGAL_MAX)),
                    "session_seed": STREAMS[stream] * 10**7 + i,
                    "rng_seed": int(rng.integers(2**31)),
                }

    def run(self, fleet: Fleet, inp: dict) -> UnitResult:
        t0 = time.perf_counter()
        j = inp["device"]
        token = protocol.TokenSim(fleet.devices[j], fleet.records[j].crp_map,
                                  temperature=inp["temperature"],
                                  session_seed=inp["session_seed"])
        channel = self.channel_factory(token)
        outcome = protocol.prover_update(fleet.db, f"dev-{j}", fleet.images[inp["image"]],
                                         channel, rng_seed=inp["rng_seed"])
        ok = clean_session_ok(outcome, bytes(token.state.nvm.app_area),
                              fleet.expected[inp["image"]])
        latency = time.perf_counter() - t0
        return UnitResult(1, int(not ok), [latency], {
            **inp, "outcome": outcome.name, "boots": token.boot_count,
            "frames": channel.counter, "ok": ok,
        })

    def summarize(self, window: list[dict], records: list[dict]) -> tuple[dict, dict]:
        fp = _session_fingerprint(window, ("device", "image", "outcome", "boots", "frames"))
        temps = [r["temperature"] for r in records]
        traffic = {
            "sessions": len(records),
            "fleet_devices": self.fleet_size,
            "image_bytes": {n: protocol.demo_images()[n].total_bytes
                            for n in self.image_names},
            "image_mix": dict(Counter(r["image"] for r in records)),
            "temperature_c": [min(temps), max(temps)] if temps else [],
            "boot_repeat_share": _boot_repeat_share(records),
        }
        return fp, traffic


# ----------------------------------------------------------- update-tamper

TAMPER_KINDS = ("flip", "flip", "flip", "mutate", "drop", "replay",
                "nonce", "helper", "brownout")
TAMPER_FRAMES = 8

# bound before any tracer is installed, so the relay's own framing is not
# counted as library calls
_decode, _encode = gen2.decode, gen2.encode


def mutate_frame(frame: gen2.Gen2Frame) -> gen2.Gen2Frame:
    """Active relay: flip one payload bit and re-frame with a valid CRC."""
    view = _decode(frame)
    if isinstance(view, gen2.SecureComm):
        ct = bytearray(view.ciphertext)
        ct[0] ^= 0x01
        view = gen2.SecureComm(inner_wordptr=view.inner_wordptr, ciphertext=bytes(ct))
    elif isinstance(view, gen2.BlockWrite):
        words = list(view.words)
        words[0] ^= 0x0001
        view = gen2.BlockWrite(membank=view.membank, wordptr=view.wordptr,
                               words=tuple(words))
    return _encode(view, rn=0)


def _flip_byte_bit(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


class TamperChannel(protocol.Channel):
    """One tamper action at delivery index `at`, on either direction of the link.

    Flips and drops go through the library's TamperPolicy; the other kinds
    are applied here around Channel.send.
    """

    def __init__(self, token: protocol.TokenSim, kind: str, at: int, bit: int) -> None:
        super().__init__(token, protocol.TamperPolicy(
            flips={at: (bit,)} if kind == "flip" else {},
            drops=frozenset({at}) if kind == "drop" else frozenset(),
        ))
        self.kind, self.at, self.bit = kind, at, bit
        self.wipe_violations = 0

    def send(self, frame: gen2.Gen2Frame) -> protocol.Reply:
        hit = self.counter == self.at
        if hit and self.kind == "brownout":
            self.token.inject_brownout()
            self.wipe_violations += not self.token.state.volatile_cleared()
        elif hit and self.kind == "mutate":
            frame = mutate_frame(frame)
        reply = super().send(frame)
        if hit and self.kind == "replay":
            reply = super().send(frame)
        if hit and isinstance(reply, protocol.AuthReply):
            if self.kind == "nonce":
                reply = protocol.AuthReply(_flip_byte_bit(reply.nonce, self.bit),
                                           reply.challenge, reply.helper)
            elif self.kind == "helper":
                reply = protocol.AuthReply(reply.nonce, reply.challenge,
                                           _flip_byte_bit(reply.helper, self.bit))
        return reply


def tamper_session_ok(outcome: protocol.UpdateOutcome, app: bytes, clean: bytes,
                      expected: bytes, wipe_violations: int) -> bool:
    """update-tamper check: app area clean or exact, COMMITTED means exact,
    and every injected brownout wiped the volatile key material."""
    if app != clean and app != expected:
        return False
    if outcome is protocol.UpdateOutcome.COMMITTED and app != expected:
        return False
    return wipe_violations == 0


class UpdateTamper(Workload):
    """Fuzzed sessions on one device at 25 C with the boot-shim image."""

    name = "update-tamper"
    key = 2
    window = 600
    unit_ops = 1
    traffic_keys = ("kind", "device", "temperature", "boots")
    image_name = "boot-shim"
    temperature = 25.0
    channel_factory = TamperChannel

    def build(self) -> Fleet:
        device_seed = int(_rng(self.seed, self.key, 100).integers(2**31))
        return build_fleet([device_seed], (self.image_name,))

    def inputs(self, stream: str) -> Iterator[dict]:
        rng = _rng(self.seed, self.key, STREAMS[stream])
        plan = [(kind, at) for kind in TAMPER_KINDS for at in range(TAMPER_FRAMES)]
        i = 0
        while True:
            # each block of 72 sessions holds every (kind, frame) pair once, so
            # the tamper mix does not drift with the seed or the run length
            for k in rng.permutation(len(plan)):
                kind, at = plan[k]
                i += 1
                yield {
                    "kind": kind,
                    "at": at,
                    "bit": int(rng.integers(512)),
                    "session_seed": STREAMS[stream] * 10**7 + i,
                    "rng_seed": int(rng.integers(2**31)),
                }

    def run(self, fleet: Fleet, inp: dict) -> UnitResult:
        t0 = time.perf_counter()
        token = protocol.TokenSim(fleet.devices[0], fleet.records[0].crp_map,
                                  temperature=self.temperature,
                                  session_seed=inp["session_seed"])
        channel = self.channel_factory(token, inp["kind"], inp["at"], inp["bit"])
        outcome = protocol.prover_update(fleet.db, "dev-0", fleet.images[self.image_name],
                                         channel, rng_seed=inp["rng_seed"])
        ok = tamper_session_ok(outcome, bytes(token.state.nvm.app_area),
                               bytes(DEFAULT_LAYOUT.app_bytes),
                               fleet.expected[self.image_name], channel.wipe_violations)
        latency = time.perf_counter() - t0
        return UnitResult(1, int(not ok), [latency], {
            **inp, "device": 0, "temperature": self.temperature,
            "outcome": outcome.name, "boots": token.boot_count,
            "frames": channel.counter, "ok": ok,
        })

    def summarize(self, window: list[dict], records: list[dict]) -> tuple[dict, dict]:
        fp = _session_fingerprint(window, ("kind", "at", "outcome", "boots", "frames"))
        fp["kind_outcomes"] = dict(Counter(f"{r['kind']}:{r.get('outcome', 'error')}"
                                           for r in window))
        traffic = {
            "sessions": len(records),
            "image_bytes": protocol.demo_images()[self.image_name].total_bytes,
            "temperature_c": self.temperature,
            "kind_mix": dict(Counter(r["kind"] for r in records)),
            "tamper_frames": [0, TAMPER_FRAMES - 1],
            "boot_repeat_share": _boot_repeat_share(records),
        }
        return fp, traffic


# -------------------------------------------------------------- mc-keyfail

def mc_count_ok(failures: int, sessions: int, p: float, z: float = 5.0) -> bool:
    """mc-keyfail check: failure count within z standard errors of n*p."""
    return abs(failures - sessions * p) <= z * math.sqrt(sessions * p * (1.0 - p))


@dataclass
class McSetup:
    cfg: fuzzy.FeConfig
    p_fail: float


class McKeyfail(Workload):
    """fuzzy.mc_key_failure at BER 0.0094 on the default 8x(31,16,3) config."""

    name = "mc-keyfail"
    key = 3
    window = 2
    ber = 0.0094
    sessions_per_call = 100_000
    unit_ops = sessions_per_call

    def build(self) -> McSetup:
        cfg = fuzzy.default_config()
        return McSetup(cfg, fuzzy.key_failure_prob(self.ber, cfg))

    def inputs(self, stream: str) -> Iterator[dict]:
        rng = _rng(self.seed, self.key, STREAMS[stream])
        while True:
            yield {"mc_seed": int(rng.integers(2**63))}

    def run(self, mc: McSetup, inp: dict) -> UnitResult:
        n = self.sessions_per_call
        t0 = time.perf_counter()
        res = fuzzy.mc_key_failure(self.ber, mc.cfg, sessions=n, seed=inp["mc_seed"])
        latency = (time.perf_counter() - t0) / n
        ok = res.sessions == n and mc_count_ok(res.failures, n, mc.p_fail)
        return UnitResult(n, 0 if ok else n, [latency],
                          {**inp, "failures": res.failures, "ok": ok})

    def summarize(self, window: list[dict], records: list[dict]) -> tuple[dict, dict]:
        fp = {
            "calls": len(window),
            "failures_per_call": [r.get("failures") for r in window],
            "failures": sum(r.get("failures", 0) for r in window),
        }
        traffic = {
            "calls": len(records),
            "sessions_per_call": self.sessions_per_call,
            "sessions": len(records) * self.sessions_per_call,
            "ber": self.ber,
            "code": "8x(31,16,3)",
        }
        return fp, traffic


# ------------------------------------------------------------- power-sweep

def monotone_ok(success: dict[tuple[float, int], float],
                distances: tuple[float, ...], sleeps: tuple[int, ...]) -> bool:
    """power-sweep check: success never rises with distance nor falls with sleep."""
    for s in sleeps:
        if any(success[a, s] < success[b, s] for a, b in zip(distances, distances[1:])):
            return False
    for d in distances:
        if any(success[d, a] > success[d, b] for a, b in zip(sleeps, sleeps[1:])):
            return False
    return True


class PowerSweep(Workload):
    """powersim.success_rate over a distance x SLEEP_CHOICES grid (criterion 9).

    A unit is one pass over the grid under a fresh seed: success_rate at
    every cell on the same trials_per_cell paired kappa draws, so within a
    unit success can never rise with distance nor fall with sleep. A
    session's latency is the pass's time over its sessions: cells differ
    in cost by design (sleeps add charging steps, brownouts cut sessions
    short), and a percentile over single cells would fall between them.
    """

    name = "power-sweep"
    key = 4
    window = 10
    trials_per_cell = 20
    distances = (20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)
    sleeps = tuple(powersim.SLEEP_CHOICES)
    unit_ops = len(distances) * len(sleeps) * trials_per_cell

    def build(self) -> list[tuple[float, int]]:
        return [(d, s) for d in self.distances for s in self.sleeps]

    def inputs(self, stream: str) -> Iterator[dict]:
        rng = _rng(self.seed, self.key, STREAMS[stream])
        while True:
            yield {"power_seed": int(rng.integers(2**31))}

    def run(self, cells: list[tuple[float, int]], inp: dict) -> UnitResult:
        t0 = time.perf_counter()
        rates = {(d, s): powersim.success_rate(d, s, trials=self.trials_per_cell,
                                               seed=inp["power_seed"])
                 for d, s in cells}
        latency = (time.perf_counter() - t0) / self.unit_ops
        ok = monotone_ok(rates, self.distances, self.sleeps)
        return UnitResult(self.unit_ops, 0 if ok else self.unit_ops, [latency],
                          {**inp, "success": [rates[c] for c in cells], "ok": ok})

    def final_check(self, cells: list[tuple[float, int]], window: list[dict]) -> int:
        """Re-run the window's sessions one by one with cold_start_session.

        Failed ops are the trials of every cell whose success count differs
        from what success_rate returned. Each record gains the cell's mean
        simulated latency over its successful sessions, for the fingerprint.
        """
        failed = 0
        for rec in window:
            if "success" not in rec:
                continue
            rec["sim_ms"] = []
            for (d, s), rate in zip(cells, rec["success"]):
                runs = [powersim.cold_start_session(d, s, rec["power_seed"], trial=t)
                        for t in range(self.trials_per_cell)]
                wins = [r.latency_ms for r in runs if r.success]
                failed += self.trials_per_cell * (len(wins) / len(runs) != rate)
                rec["sim_ms"].append(sum(wins) / len(wins) if wins else None)
        return failed

    def summarize(self, window: list[dict], records: list[dict]) -> tuple[dict, dict]:
        cells = self.build()
        window = [r for r in window if "sim_ms" in r]
        if not window:
            return {}, {}
        table = {}
        for i, (d, s) in enumerate(cells):
            sims = [r["sim_ms"][i] for r in window if r["sim_ms"][i] is not None]
            table[f"{d:g}cm/{s}ms"] = {
                "success": sum(r["success"][i] for r in window) / len(window),
                "mean_sim_ms": sum(sims) / len(sims) if sims else None,
            }
        fp = {"passes": len(window), "trials_per_cell": self.trials_per_cell,
              "cells": table}
        traffic = {
            "passes": len(records),
            "trials_per_cell": self.trials_per_cell * len(records),
            "sessions": self.unit_ops * len(records),
            "distances_cm": list(self.distances),
            "sleeps_ms": list(self.sleeps),
        }
        return fp, traffic


WORKLOADS = {w.name: w for w in (UpdateClean, UpdateTamper, McKeyfail, PowerSweep)}
