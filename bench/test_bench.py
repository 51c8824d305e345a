"""Tests of the benchmark itself: every output check can fire and is counted.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

from crfidsim import fuzzy, gen2, mac, powersim, protocol  # noqa: E402


def first_inputs(workload, n):
    inputs = workload.inputs("main")
    return [next(inputs) for _ in range(n)]


# ------------------------------------------------------------ update-clean

@pytest.fixture(scope="module")
def clean():
    workload = wl.UpdateClean(seed=5)
    return workload, workload.build()


class RewriteCommittedByte(protocol.Channel):
    """Rewrites one byte of the application area right after the commit."""

    def send(self, frame):
        reply = super().send(frame)
        if reply == protocol.Ack("commit"):
            self.token.nvm.app_area[7] ^= 0x40
        return reply


def test_clean_sessions_pass(clean):
    workload, fleet = clean
    for inp in first_inputs(workload, 3):
        res = workload.run(fleet, inp)
        assert (res.ops, res.failed, res.record["outcome"]) == (1, 0, "COMMITTED")
        assert res.record["boots"] == 3


def test_clean_check_counts_rewritten_commit(clean, monkeypatch):
    workload, fleet = clean
    monkeypatch.setattr(workload, "channel_factory", RewriteCommittedByte)
    done = run.run_units(workload, fleet, "main", 3, 0.0)
    assert [r["outcome"] for r in done.records] == ["COMMITTED"] * 3
    assert (done.ops, done.failed) == (3, 3)


def test_clean_check_counts_a_raising_session(clean, monkeypatch):
    workload, fleet = clean

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(protocol, "prover_update", broken)
    done = run.run_units(workload, fleet, "main", 2, 0.0)
    assert (done.ops, done.failed) == (2, 2)
    assert "injected" in done.records[0]["error"]


# ----------------------------------------------------------- update-tamper

@pytest.fixture(scope="module")
def tamper():
    workload = wl.UpdateTamper(seed=5)
    return workload, workload.build()


def tamper_input(kind, at, bit=3):
    return {"kind": kind, "at": at, "bit": bit, "session_seed": 17, "rng_seed": 4}


class CommitThenCorrupt(wl.TamperChannel):
    def send(self, frame):
        reply = super().send(frame)
        if reply == protocol.Ack("commit"):
            self.token.nvm.app_area[0] ^= 0x01
        return reply


class NoWipeBrownout(wl.TamperChannel):
    """A token whose brownout leaves the volatile key material in place."""

    def __init__(self, token, *args):
        def keep_keys():
            token.state.mode = protocol.TokenMode.HALTED
            token.brownout_pending = True

        token.inject_brownout = keep_keys
        super().__init__(token, *args)


def test_tamper_sessions_pass(tamper):
    workload, fleet = tamper
    for inp in first_inputs(workload, 20):
        assert workload.run(fleet, inp).failed == 0


@pytest.mark.parametrize("kind,at", [("brownout", 3), ("replay", 4), ("nonce", 2),
                                     ("drop", 5), ("flip", 1), ("mutate", 7)])
def test_tamper_kinds_change_the_session(tamper, kind, at):
    workload, fleet = tamper
    untouched = workload.run(fleet, tamper_input("none", 0)).record
    res = workload.run(fleet, tamper_input(kind, at))
    assert res.failed == 0
    keys = ("outcome", "boots", "frames")
    assert [res.record[k] for k in keys] != [untouched[k] for k in keys]


def test_tamper_check_counts_commit_with_wrong_image(tamper, monkeypatch):
    workload, fleet = tamper
    monkeypatch.setattr(workload, "channel_factory", CommitThenCorrupt)
    res = workload.run(fleet, tamper_input("none", 0))
    assert res.record["outcome"] == "COMMITTED"
    assert res.failed == 1


def test_tamper_check_counts_unwiped_brownout(tamper, monkeypatch):
    workload, fleet = tamper
    monkeypatch.setattr(workload, "channel_factory", NoWipeBrownout)
    res = workload.run(fleet, tamper_input("brownout", 3))
    assert res.failed == 1


def test_tamper_check_rejects_mixed_app_area():
    clean_app, image = bytes(8), bytes(range(8))
    mixed = image[:4] + clean_app[4:]
    committed = protocol.UpdateOutcome.COMMITTED
    timeout = protocol.UpdateOutcome.TIMEOUT
    assert wl.tamper_session_ok(committed, image, clean_app, image, 0)
    assert wl.tamper_session_ok(timeout, clean_app, clean_app, image, 0)
    assert not wl.tamper_session_ok(timeout, mixed, clean_app, image, 0)
    assert not wl.tamper_session_ok(committed, clean_app, clean_app, image, 0)
    assert not wl.tamper_session_ok(timeout, clean_app, clean_app, image, 1)


# -------------------------------------------------------------- mc-keyfail

def test_mc_check_bound():
    n, p = 100_000, 0.0016
    se = math.sqrt(n * p * (1 - p))
    assert wl.mc_count_ok(round(n * p), n, p)
    assert wl.mc_count_ok(round(n * p + 4.9 * se), n, p)
    assert not wl.mc_count_ok(round(n * p + 10 * se), n, p)
    assert not wl.mc_count_ok(round(n * p - 10 * se), n, p)


def test_mc_check_counts_count_off_by_ten_se(monkeypatch):
    workload = wl.McKeyfail(seed=5)
    mc = workload.build()
    n = workload.sessions_per_call
    off = round(n * mc.p_fail + 10 * math.sqrt(n * mc.p_fail * (1 - mc.p_fail)))
    monkeypatch.setattr(fuzzy, "mc_key_failure",
                        lambda ber, cfg, sessions, seed: fuzzy.McResult(sessions, off))
    res = workload.run(mc, next(workload.inputs("main")))
    assert (res.ops, res.failed) == (n, n)


def test_mc_small_run_passes(monkeypatch):
    workload = wl.McKeyfail(seed=5)
    monkeypatch.setattr(workload, "sessions_per_call", 20_000)
    res = workload.run(workload.build(), next(workload.inputs("main")))
    assert res.failed == 0 and res.ops == 20_000


# ------------------------------------------------------------- power-sweep

def test_power_monotone_check():
    d, s = (20.0, 40.0), (0, 10)
    good = {(20.0, 0): 1.0, (20.0, 10): 1.0, (40.0, 0): 0.0, (40.0, 10): 1.0}
    assert wl.monotone_ok(good, d, s)
    assert not wl.monotone_ok({**good, (40.0, 0): 1.0, (20.0, 0): 0.0}, d, s)
    assert not wl.monotone_ok({**good, (20.0, 10): 0.0}, d, s)


def test_power_units_pass_and_match_sessions():
    workload = wl.PowerSweep(seed=5)
    cells = workload.build()
    done = run.run_units(workload, cells, "main", 2, 0.0)
    assert done.failed == 0 and done.ops == 2 * workload.unit_ops
    assert workload.final_check(cells, done.records) == 0
    fp, _ = workload.summarize(done.records, done.records)
    assert fp["cells"]["20cm/30ms"]["mean_sim_ms"] > fp["cells"]["20cm/0ms"]["mean_sim_ms"]


def test_power_check_counts_success_rising_with_distance(monkeypatch):
    workload = wl.PowerSweep(seed=5)
    cells = workload.build()
    monkeypatch.setattr(powersim, "success_rate",
                        lambda d, s, trials, seed: float(d >= 100.0))
    res = workload.run(cells, next(workload.inputs("main")))
    assert res.failed == res.ops == workload.unit_ops


def test_power_final_check_counts_success_rate_mismatch(monkeypatch):
    workload = wl.PowerSweep(seed=5)
    cells = workload.build()
    monkeypatch.setattr(powersim, "success_rate", lambda *a, **k: 0.5)
    done = run.run_units(workload, cells, "main", 1, 0.0)
    assert done.failed == 0          # equal rates everywhere are monotone
    assert workload.final_check(cells, done.records) > 0


# ------------------------------------------------------ fingerprint, traffic

def test_fingerprint_repeats_for_a_seed_and_moves_with_it():
    def fingerprint(seed):
        workload = wl.UpdateTamper(seed=seed)
        fleet = workload.build()
        records = run.run_units(workload, fleet, "main", 15, 0.0).records
        return wl.digest(workload.summarize(records, records)[0])

    assert fingerprint(8) == fingerprint(8)
    assert fingerprint(8) != fingerprint(9)


def test_records_past_the_window_keep_traffic_fields_only(clean, monkeypatch):
    workload, fleet = clean
    monkeypatch.setattr(workload, "window", 2)
    records = run.run_units(workload, fleet, "main", 4, 0.0).records
    assert "outcome" in records[1] and "outcome" not in records[2]
    assert set(records[3]) == set(workload.traffic_keys)


def test_input_mixes_are_balanced():
    images = [inp["image"] for inp in first_inputs(wl.UpdateClean(seed=2), 30)]
    assert all(images.count(n) == 10 for n in wl.UpdateClean.image_names)
    plan = [(inp["kind"], inp["at"]) for inp in first_inputs(wl.UpdateTamper(seed=2), 72)]
    assert sorted(plan) == sorted((k, a) for k in wl.TAMPER_KINDS for a in range(8))


def test_boot_repeat_share():
    recs = [{"device": 0, "temperature": 1.0, "boots": 3},
            {"device": 1, "temperature": 1.0, "boots": 3},
            {"device": 0, "temperature": 1.0, "boots": 2}]
    assert wl._boot_repeat_share(recs) == pytest.approx(6 / 8)


# ----------------------------------------------------------------- tracing

def test_tracer_self_time_and_restore():
    tracer = Tracer(targets=(("mac", "cmac", "mac.cmac", None),
                             ("mac", "mac_firmware", "mac.mac_firmware", None)))
    original = mac.cmac
    tracer.install()
    try:
        tracer.session = 0
        tracer.span("bench.op", mac.mac_firmware, b"x" * 40, bytes(16), bytes(16))
    finally:
        tracer.uninstall()
    assert mac.cmac is original
    assert tracer.names == ["bench.op", "mac.mac_firmware", "mac.cmac"]
    assert tracer.parents == [-1, 0, 1]
    own = tracer.self_ns()
    assert all(x >= 0 for x in own)
    assert sum(own) == tracer.ends[0] - tracer.starts[0] == tracer.timed_top_level_ns()
    stats = tracer.layer_stats(phases=(True,))
    assert stats["mac.cmac"]["calls"] == 1


def test_tracer_counts_raised_and_observed():
    tracer = Tracer(targets=[t for t in TARGETS if t[2] in ("gen2.decode", "mac.cmac")])
    tracer.install()
    try:
        frame = gen2.encode(gen2.TagPrivilege(), rn=1)
        with pytest.raises(gen2.BadCrcError):
            gen2.decode(gen2.Gen2Frame(bits=frame.bits.flip(3)))
        mac.cmac(bytes(16), b"abc")
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats["gen2.decode"]["raised"] == 1
    assert stats["mac.cmac"]["bytes"] == 3


def test_relay_framing_is_not_traced():
    frame = gen2.encode(gen2.SecureComm(inner_wordptr=0, ciphertext=bytes(16)), rn=1)
    tracer = Tracer(targets=[t for t in TARGETS if t[0] == "gen2"])
    tracer.install()
    try:
        wl.mutate_frame(frame)
    finally:
        tracer.uninstall()
    assert tracer.names == []


def test_every_trace_target_resolves_and_is_restored():
    originals = [getattr(gen2.Gen2Frame, "to_hex"), protocol.Channel.reset_token,
                 powersim.step]
    tracer = Tracer()
    tracer.install()
    try:
        assert powersim.step is not originals[2]
    finally:
        tracer.uninstall()
    assert [gen2.Gen2Frame.to_hex, protocol.Channel.reset_token,
            powersim.step] == originals


# -------------------------------------------------------- harness contract

def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(wl.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, u) for m, u, _ in run.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_all_fails_a_crashed_workload_despite_a_stale_report(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    stale = {"correct": True, "error_rate": 0.0, "failed": 0, "attempted": 1,
             "fingerprint": {"sha256": "stale"}, "metrics": {}}
    for name in run.WORKLOAD_NAMES:
        run.results_path(name, 1, 0).write_text(json.dumps(stale))
    monkeypatch.setattr(run.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 1, "", "boom"))
    args = run.argparse.Namespace(seed=1, seconds=1.0, trace=0)
    assert run.run_all(args) == 1
    assert not any(tmp_path.iterdir())


def test_child_setup_times_one_fresh_set_up():
    import_s, build_s = run.child_setup_seconds("power-sweep", 3)
    assert 0 < import_s < 60 and 0 <= build_s < 60


def test_tail_percentile_rule():
    assert run.tail_percentile(list(range(5))) == (100.0, 4)
    q, _ = run.tail_percentile([float(i) for i in range(500)])
    assert q == pytest.approx(98.0)
    q, _ = run.tail_percentile([float(i) for i in range(5000)])
    assert q == 99.0
