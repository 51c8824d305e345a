"""Span tracing around the library's public functions, installed from outside.

Each wrapped function is replaced at the module or class attribute where
its callers look it up, so calls made inside the library are seen too.
A span records (name, start_ns, end_ns, parent span, session id); spans
stay in memory and are written out when the run ends. Self time is a
span's duration minus the durations of its direct children; the run is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

from crfidsim import powersim, protocol

# An observer maps (args, kwargs, result) to extra counters for the span.
Observer = Callable[[tuple, dict, object], dict]


def _cmac_bytes(args, kwargs, result):
    message = args[1] if len(args) > 1 else kwargs["message"]
    return {"bytes": len(message)}


def _is_nak(args, kwargs, result):
    return {"naks": int(isinstance(result[1], protocol.Nak))}


def _is_brownout(args, kwargs, result):
    return {"brownouts": int(isinstance(result, powersim.Brownout))}


def _outcome(args, kwargs, result):
    return {f"outcome.{result.name}": 1}


# (module, attribute path, span name, observer); two functions may share a
# span name, and their calls then add up under it
TARGETS: tuple[tuple[str, str, str, Observer | None], ...] = (
    ("puf", "readout", "puf.readout", None),
    ("puf", "trng_next", "puf.trng_next", None),
    ("puf", "synth_device", "puf.synth_device", None),
    ("enroll", "enroll_device", "enroll.enroll_device", None),
    ("enroll", "challenge_to_response", "enroll.challenge_to_response", None),
    ("fuzzy", "fe_gen", "fuzzy.fe_gen", None),
    ("fuzzy", "fe_rec", "fuzzy.fe_rec", None),
    ("fuzzy", "mc_key_failure", "fuzzy.mc_key_failure", None),
    ("fuzzy", "run_sessions", "fuzzy.run_sessions", None),
    ("fuzzy", "build_decode_tables", "fuzzy.build_decode_tables", None),
    ("bch", "correct", "bch.correct", None),
    ("bch", "syndrome", "bch.syndrome", None),
    ("mac", "cmac", "mac.cmac", _cmac_bytes),
    ("mac", "sc_encrypt", "mac.sc", None),
    ("mac", "sc_decrypt", "mac.sc", None),
    ("gen2", "encode", "gen2.encode", None),
    ("gen2", "decode", "gen2.decode", None),
    ("gen2", "Gen2Frame.to_hex", "gen2.Gen2Frame.to_hex", None),
    ("protocol", "token_boot", "protocol.token_boot", None),
    ("protocol", "token_handle", "protocol.token_handle", _is_nak),
    ("protocol", "prover_update", "protocol.prover_update", _outcome),
    ("protocol", "Channel.reset_token", "protocol.Channel.reset_token", None),
    ("powersim", "success_rate", "powersim.success_rate", None),
    ("powersim", "cold_start_session", "powersim.cold_start_session", None),
    ("powersim", "step", "powersim.step", _is_brownout),
    ("powersim", "charge", "powersim.charge", None),
)

# span name of the benchmark's own per-operation root span
OP_SPAN = "bench.op"


class Tracer:
    """Collects spans while installed; restores every wrapped attribute on uninstall."""

    def __init__(self, targets: Iterable[tuple[str, str, str, Observer | None]] = TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.sessions: list[int] = []
        # keyed by (span name, whether the span ran inside a timed session)
        self.extra: dict[tuple[str, bool], Counter[str]] = defaultdict(Counter)
        self.session = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sessions.append(self.session)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span of the given name."""
        return self._wrapper(fn, name, None)(*args, **kwargs)

    def _wrapper(self, fn: Callable, name: str, observe: Observer | None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.extra[name, self.session >= 0]["raised"] += 1
                raise
            finally:
                self._close(idx)
            if observe is not None:
                self.extra[name, self.session >= 0].update(observe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------- installation
    def install(self) -> None:
        for module_name, attr_path, name, observe in self.targets:
            owner = importlib.import_module(f"crfidsim.{module_name}")
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- analysis
    def self_ns(self) -> list[int]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def layer_stats(self, phases: tuple[bool, ...] = (False, True)) -> dict:
        """Per span name: calls, self_ms, raised, plus observer counters.

        phases selects set-up spans (False, session id < 0), spans of timed
        sessions (True), or both.
        """
        stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, own, sess in zip(self.names, self.self_ns(), self.sessions):
            if (sess >= 0) in phases:
                st = stats[name]
                st["calls"] += 1
                st["self_ms"] += own / 1e6
        for (name, timed), counters in self.extra.items():
            if timed in phases:
                for key, n in counters.items():
                    stats[name][key] += n
        return {name: dict(st) for name, st in stats.items()}

    def timed_top_level_ns(self) -> int:
        """Summed duration of top-level spans inside timed sessions."""
        return sum(
            e - s
            for s, e, p, sess in zip(self.starts, self.ends, self.parents, self.sessions)
            if p < 0 and sess >= 0
        )

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tsession\n")
            t0 = self.starts[0] if self.starts else 0
            for i, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.sessions)):
                name, s, e, p, sess = row
                fh.write(f"{i}\t{name}\t{s - t0}\t{e - t0}\t{p}\t{sess}\n")
