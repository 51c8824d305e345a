"""Capacitor dynamics, cycle budgets, subtask scheduling, cold-start trends."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfidsim import powersim as ps
from crfidsim import enroll, gen2, protocol, puf
from crfidsim.gen2 import BlockWrite, TagPrivilege, encode


def state_at(v, distance=40.0, kappa=16.0):
    return ps.EnergyState(v_cap=v, rate=ps.Harvest(distance, 0, kappa).rate)


class TestCostTable:
    def test_table_defaults(self):
        assert ps.TRNG_CYCLES == 375
        assert ps.PUF_READOUT_CYCLES == 615
        assert ps.TEMP_CHECK_CYCLES == 734
        assert ps.FE_GEN_CYCLES == 109_234
        assert ps.MAC_CYCLES_PER_240_BYTES == 22_197

    def test_mac_cost_linear_in_bytes(self):
        base = ps.mac_cost(240)
        assert base == 22_197
        assert ps.mac_cost(480) == 2 * base
        assert ps.mac_cost(720) == 3 * base

    def test_mac_cost_monotone(self):
        costs = [ps.mac_cost(n) for n in range(16, 2048, 16)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        with pytest.raises(ValueError):
            ps.mac_cost(-1)


class TestSubtaskPlan:
    def test_sleep_choices(self):
        for s in (0, 10, 20, 30):
            assert ps.run_ops((), s, state_at(2.0)).success
        with pytest.raises(ValueError):
            ps.run_ops((), 15, state_at(2.0))

    @given(total=st.integers(8, 200_000), parts=st.integers(1, 8))
    def test_split_partitions_exactly(self, total, parts):
        split = ps.split_subtasks(total, parts)
        assert sum(split) == total
        assert len(split) == parts
        assert min(split) >= 1
        assert max(split) - min(split) <= 1

    def test_split_rejects_impossible(self):
        with pytest.raises(ValueError):
            ps.split_subtasks(3, 4)
        with pytest.raises(ValueError):
            ps.split_subtasks(10, 0)


class TestCharging:
    def test_voltage_rises_toward_v_max(self):
        s = state_at(0.5, distance=20.0, kappa=16.0)
        prev = s
        for _ in range(40):
            nxt = ps.charge(prev, 10.0)
            assert prev.v_cap < nxt.v_cap < ps.V_MAX
            prev = nxt
        assert prev.v_cap > 2.9

    def test_zero_rate_stays_flat(self):
        s = state_at(1.0, kappa=0.0)
        out = ps.charge(s, 1e6)
        assert out.v_cap == 1.0
        assert out.time_ms == 1e6

    def test_time_to_voltage_round_trip(self):
        s = state_at(0.0, distance=30.0, kappa=12.0)
        t = ps.time_to_voltage(s, ps.V_BOOT)
        landed = ps.charge(s, t)
        assert landed.v_cap == pytest.approx(ps.V_BOOT, abs=1e-12)

    def test_time_to_voltage_edges(self):
        s = state_at(2.5)
        assert ps.time_to_voltage(s, 2.0) == 0.0
        assert math.isinf(ps.time_to_voltage(s, ps.V_MAX))
        assert math.isinf(ps.time_to_voltage(state_at(1.0, kappa=0.0), 2.0))

    def test_overflowing_rate_fills_at_once(self):
        # kappa / d^2 overflows to inf: the capacitor is full without waiting
        s = state_at(0.0, distance=1e-160)
        assert math.isinf(s.rate)
        assert ps.time_to_voltage(s, ps.V_BOOT) == 0.0
        full = ps.charge(s, 0.0)
        assert full.v_cap == ps.V_MAX
        assert full.time_ms == 0.0
        assert ps.charge(s, 5.0).v_cap == ps.V_MAX
        res = ps.cold_start_session(1e-160, 0, seed=1)
        assert res.success
        assert res.latency_ms == ps.cold_start_session(1e-150, 0, seed=1).latency_ms


class TestStep:
    def test_zero_cycles_is_identity(self):
        s = state_at(2.0)
        assert ps.step(s, 0) is s

    def test_accounting_fields_advance(self):
        s = state_at(2.5, distance=20.0, kappa=40.0)
        out = ps.step(s, 8000)
        assert isinstance(out, ps.EnergyState)
        assert out.cycles_consumed == 8000
        assert out.time_ms == pytest.approx(1.0)

    def test_zero_harvest_budget_ceil_exact(self):
        s = state_at(ps.V_BOOT, kappa=0.0)
        budget = (ps.V_BOOT - ps.V_MIN) / ps.DRAIN_PER_CYCLE
        alive = ps.step(s, math.floor(budget))
        assert isinstance(alive, ps.EnergyState)
        dead = ps.step(s, math.ceil(budget))
        assert isinstance(dead, ps.Brownout)
        assert dead.cycles_executed == math.floor(budget)
        assert dead.state.v_cap == ps.V_MIN

    def test_sustainable_equilibrium_never_browns_out(self):
        # at 20 cm with a strong harvest draw the execution equilibrium
        # sits above the 1.8 V floor
        s = state_at(2.0, distance=20.0, kappa=60.0)
        out = ps.step(s, 10_000_000)
        assert isinstance(out, ps.EnergyState)
        assert out.v_cap >= ps.V_MIN

    def test_below_floor_is_immediate_brownout(self):
        out = ps.step(state_at(1.7), 1)
        assert isinstance(out, ps.Brownout)
        assert out.cycles_executed == 0

    def test_brownout_lands_exactly_on_floor(self):
        s = state_at(2.0, distance=50.0, kappa=5.0)
        out = ps.step(s, 10_000_000)
        assert isinstance(out, ps.Brownout)
        assert out.state.v_cap == ps.V_MIN
        assert 0 < out.cycles_executed < 10_000_000

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            ps.step(state_at(2.0), -1)

    @given(kappa=st.floats(1.0, 50.0), cycles=st.integers(1, 400_000))
    @settings(max_examples=60)
    def test_survivor_voltage_in_range(self, kappa, cycles):
        out = ps.step(state_at(2.0, kappa=kappa), cycles)
        if isinstance(out, ps.EnergyState):
            assert ps.V_MIN <= out.v_cap <= ps.V_MAX
        else:
            assert out.state.v_cap == ps.V_MIN


class TestRunWithIem:
    def test_sleep_zero_single_part_equals_plain_step(self):
        s = state_at(2.2, distance=30.0, kappa=20.0)
        res = ps.run_ops((ps.PlanOp("task", 50_000),), 0, s)
        direct = ps.step(s, 50_000)
        assert res.success
        assert res.state == direct

    def test_sleep_zero_split_matches_cycle_accounting(self):
        s = state_at(2.2, distance=30.0, kappa=20.0)
        res = ps.run_ops((ps.PlanOp("task", 50_000, 8),), 0, s)
        direct = ps.step(s, 50_000)
        assert res.state.cycles_consumed == direct.cycles_consumed
        assert res.state.v_cap == pytest.approx(direct.v_cap, abs=1e-9)
        assert res.sleeps == 0

    def test_latency_delta_is_exact(self):
        s = state_at(2.5, distance=20.0, kappa=60.0)
        base = ps.run_ops((ps.PlanOp("fe-gen", ps.FE_GEN_CYCLES, 8),), 0, s)
        for sleep in (10, 20, 30):
            slept = ps.run_ops((ps.PlanOp("fe-gen", ps.FE_GEN_CYCLES, 8),), sleep, s)
            assert slept.success
            assert slept.latency_ms == base.latency_ms + 7 * sleep
            assert slept.sleeps == 7

    def test_sleep_rescues_tight_budget(self):
        # budget below the key-derivation cost: continuous execution dies,
        # interleaving recharges enough to finish
        s = state_at(2.0, distance=40.0, kappa=5.0)
        assert ps.single_charge_budget(40.0, 5.0) < ps.FE_GEN_CYCLES
        plain = ps.run_ops((ps.PlanOp("fe-gen", ps.FE_GEN_CYCLES, 8),), 0, s)
        slept = ps.run_ops((ps.PlanOp("fe-gen", ps.FE_GEN_CYCLES, 8),), 30, s)
        assert not plain.success
        assert plain.failed_op == "fe-gen"
        assert plain.state.v_cap == ps.V_MIN
        assert slept.success

    def test_success_monotone_in_sleep(self):
        rates = [
            ps.success_rate(40.0, sleep, trials=500, seed=7)
            for sleep in ps.SLEEP_CHOICES
        ]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] > rates[0]


class TestBudgets:
    def test_zero_rate_budget_closed_form(self):
        expected = (ps.V_BOOT - ps.V_MIN) / ps.DRAIN_PER_CYCLE
        assert ps.single_charge_budget(50.0, 0.0) == expected

    def test_sustainable_is_infinite(self):
        assert math.isinf(ps.single_charge_budget(20.0, 60.0))

    def test_budget_monotone_in_kappa_and_distance(self):
        by_kappa = [ps.single_charge_budget(50.0, k) for k in (4, 8, 16, 32)]
        assert all(a < b for a, b in zip(by_kappa, by_kappa[1:]))
        by_dist = [ps.single_charge_budget(d, 16.0) for d in (30, 40, 50, 80)]
        assert all(a > b for a, b in zip(by_dist, by_dist[1:]))

    def test_budget_agrees_with_step(self):
        for kappa in (3.0, 9.0, 30.0):
            budget = ps.single_charge_budget(50.0, kappa)
            s = state_at(ps.V_BOOT, distance=50.0, kappa=kappa)
            assert isinstance(ps.step(s, math.floor(budget)), ps.EnergyState)
            assert isinstance(ps.step(s, math.ceil(budget) + 1), ps.Brownout)

    def test_50cm_support_overlaps_calibration_window(self):
        budgets = ps.sample_budgets(50.0, 2000, seed=7)
        finite = budgets[~(budgets == math.inf)]
        window = [b for b in finite if 300_000 <= b <= 600_000]
        assert len(window) > 0
        assert finite.min() < 300_000   # support extends both ways
        assert budgets.max() > 600_000

    def test_draws_are_reproducible(self):
        a = ps.sample_budgets(50.0, 50, seed=3)
        b = ps.sample_budgets(50.0, 50, seed=3)
        assert (a == b).all()
        c = ps.sample_budgets(50.0, 50, seed=4)
        assert (a != c).any()


class TestColdStart:
    def test_deterministic_under_seed(self):
        t1, t2 = [], []
        r1 = ps.cold_start_session(40.0, 30, seed=5, trial=3, trace=t1)
        r2 = ps.cold_start_session(40.0, 30, seed=5, trial=3, trace=t2)
        assert r1 == r2
        assert t1 == t2

    def test_close_range_nearly_always_succeeds(self):
        for sleep in (0, 30):
            rate = ps.success_rate(20.0, sleep, trials=500, seed=11)
            assert rate >= 0.95

    def test_mid_range_sleep_ordering(self):
        plain = ps.success_rate(40.0, 0, trials=500, seed=11)
        slept = ps.success_rate(40.0, 30, trials=500, seed=11)
        assert plain < 0.5
        assert slept > plain + 0.3

    def test_success_non_increasing_in_distance(self):
        for sleep in (0, 30):
            rates = [
                ps.success_rate(d, sleep, trials=400, seed=11)
                for d in (20.0, 30.0, 40.0, 50.0, 60.0, 80.0)
            ]
            assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_zero_harvest_never_boots(self):
        res = ps.cold_start_session(40.0, 0, seed=1, kappa=0.0)
        assert not res.success
        assert res.failed_op == "charge"
        assert math.isinf(res.latency_ms)

    def test_latency_includes_charge_and_execution(self):
        res = ps.cold_start_session(20.0, 0, seed=1, kappa=60.0)
        assert res.success
        exec_ms = sum(op.cycles for op in ps.BOOT_OPS) / ps.CYCLES_PER_MS
        charge_ms = ps.time_to_voltage(
            state_at(0.0, distance=20.0, kappa=60.0), ps.V_BOOT
        )
        assert res.latency_ms == pytest.approx(exec_ms + charge_ms)

    def test_trace_records_boot_and_subtasks(self):
        trace = []
        res = ps.cold_start_session(20.0, 10, seed=1, kappa=60.0, trace=trace)
        assert res.success
        events = [e for _, _, e in trace]
        assert events[0] == "boot"
        assert sum(e.startswith("fe-gen[") for e in events) == 8
        assert events[-1] == "reply[1/1]"
        times = [t for t, _, _ in trace]
        assert times == sorted(times)

    def test_trace_tsv_shape(self):
        trace = []
        ps.cold_start_session(20.0, 10, seed=1, kappa=60.0, trace=trace)
        text = ps.trace_to_tsv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "time_ms\tv_cap\tevent"
        assert len(lines) == len(trace) + 1
        t, v, event = lines[1].split("\t")
        float(t), float(v)
        assert event

    def test_model_validation(self):
        with pytest.raises(ValueError):
            state_at(2.0, distance=0.0).rate


class TestInputValidation:
    """A NaN or negative input raises instead of reporting a NaN success."""

    @pytest.mark.parametrize("distance,kappa", [
        (math.nan, None), (40.0, math.nan), (40.0, -1.0), (-40.0, None),
    ])
    def test_cold_start_rejects(self, distance, kappa):
        with pytest.raises(ValueError):
            ps.cold_start_session(distance, 0, 1, kappa=kappa)

    @pytest.mark.parametrize("args", [
        (math.nan, 0, 5, 1), (0.0, 0, 5, 1), (-20.0, 0, 5, 1),
        (40.0, 5, 5, 1), (40.0, math.nan, 5, 1), (40.0, 0, 0, 1),
    ])
    def test_success_rate_rejects_before_any_trial(self, monkeypatch, args):
        def no_draw(seed, trial):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(ps, "draw_kappa", no_draw)
        with pytest.raises(ValueError):
            ps.success_rate(*args)

    @pytest.mark.parametrize("dt_ms", [-1e-12, -1.0, -math.inf])
    def test_charge_rejects_negative_time(self, dt_ms):
        with pytest.raises(ValueError, match="negative time"):
            ps.charge(state_at(2.0), dt_ms)

    def test_infinite_distance_fails_on_both_paths(self):
        res = ps.cold_start_session(math.inf, 0, 1)
        assert (res.success, res.failed_op) == (False, "charge")
        assert ps.success_rate(math.inf, 0, 5, 1) == 0.0
        assert ps.success_prob(math.inf, 0) == 0.0

    # d^2 underflows (1e-200, and 1e-161 once scaled by a*) or overflows
    # (1e200); 1e-160 has a subnormal square whose rate overflows to inf
    @pytest.mark.parametrize("distance,succeeds", [
        (1e-200, True), (1e-161, True), (1e-160, True), (1e200, False),
    ])
    @pytest.mark.parametrize("sleep_ms", ps.SLEEP_CHOICES)
    def test_extreme_distances_reach_the_limits(self, distance, succeeds, sleep_ms):
        res = ps.cold_start_session(distance, sleep_ms, 1)
        assert res.success is succeeds
        assert ps.success_rate(distance, sleep_ms, 5, 1) == float(succeeds)
        assert ps.success_prob(distance, sleep_ms) == float(succeeds)
        zero_rate = (ps.V_BOOT - ps.V_MIN) / ps.DRAIN_PER_CYCLE
        want = math.inf if succeeds else zero_rate
        assert ps.single_charge_budget(distance, ps.draw_kappa(1, 0)) == want

    def test_underflowing_square_with_zero_kappa_is_zero_rate(self):
        assert ps.Harvest(1e-200, 0, 0.0).rate == 0.0


class TestCriticalRate:
    """success_rate decides trials against critical_rate; it must agree with
    cold_start_session on every trial, which bench's power-sweep re-checks."""

    DISTANCES = (20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)

    def test_brackets_the_transition(self):
        for sleep in ps.SLEEP_CHOICES:
            a_star = ps.critical_rate(sleep)
            assert ps.cold_start_session(1.0, sleep, 0, kappa=a_star).success
            below = a_star * (1 - 1e-12)
            assert not ps.cold_start_session(1.0, sleep, 0, kappa=below).success

    def test_unit_rate_survives_every_sleep(self):
        # critical_rate bisects on [0, 1] without widening it
        for sleep in ps.SLEEP_CHOICES:
            assert ps.cold_start_session(1.0, sleep, 0, kappa=1.0).success

    def test_sleep_lowers_the_threshold(self):
        # with test_success_prob_trends, criterion 9's monotonicity in sleep
        # and distance as a fact of construction, next to its sampled check
        rates = [ps.critical_rate(s) for s in ps.SLEEP_CHOICES]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_rejects_sleeps_outside_choices(self):
        for bad in (5, -10, math.nan):
            with pytest.raises(ValueError):
                ps.critical_rate(bad)

    def test_threshold_matches_simulation_per_trial(self):
        for seed in range(10):
            for d in self.DISTANCES:
                for s in ps.SLEEP_CHOICES:
                    sims = [ps.cold_start_session(d, s, seed, trial=t).success
                            for t in range(20)]
                    assert ps.success_rate(d, s, 20, seed) == sum(sims) / 20

    # trial t draws kappa = a* d^2 FACTORS[t]: the inner two fall inside
    # CRITICAL_MARGIN and are simulated, the outer two are compared
    FACTORS = (1 - 1e-6, 1 - 1e-10, 1 + 1e-10, 1 + 1e-6)

    def test_trials_at_the_threshold_match_simulation(self, monkeypatch):
        for d in self.DISTANCES:
            for s in ps.SLEEP_CHOICES:
                a_star = ps.critical_rate(s)
                monkeypatch.setattr(
                    ps, "draw_kappa",
                    lambda seed, trial: a_star * d * d * self.FACTORS[trial])
                sims = [ps.cold_start_session(d, s, 0, trial=t).success
                        for t in range(len(self.FACTORS))]
                got = ps.success_rate(d, s, len(self.FACTORS), 0)
                assert got == sum(sims) / len(sims)
                assert sims == [False, False, True, True]

    def test_success_prob_matches_monte_carlo(self):
        # seed, trials and the 4-SE bound were fixed before the first run
        n = 2000
        for d in self.DISTANCES:
            for s in ps.SLEEP_CHOICES:
                p = ps.success_prob(d, s)
                se = max(math.sqrt(p * (1 - p) / n), 1 / n)
                assert abs(ps.success_rate(d, s, n, seed=42) - p) <= 4 * se

    def test_success_prob_trends(self):
        # DISTANCES holds criterion 9's six distances
        for s in ps.SLEEP_CHOICES:
            probs = [ps.success_prob(d, s) for d in self.DISTANCES]
            assert all(a > b for a, b in zip(probs, probs[1:]))
        assert ps.success_prob(40.0, 0) < ps.success_prob(40.0, 30)


class TestBrownoutClearsTokenState:
    def test_volatile_zeroed_before_any_further_frame(self):
        device = puf.synth_device(seed=11)
        record = enroll.enroll_device(device, "tok-ps")
        token = protocol.TokenSim(device, record.crp_map, session_seed=9)
        frame = encode(TagPrivilege(), rn=0x1234)
        # the privilege frame resets the token into an update boot, the only
        # boot that derives a key
        assert token.deliver(frame) == protocol.Ack("privilege")
        assert token.state.mode is protocol.TokenMode.KEY_READY
        assert token.state.key is not None
        token.inject_brownout()
        st = token.state
        assert st.key is None and st.auth is None
        assert token.deliver(frame) is None   # silent until the field cycles
        token.power_cycle()
        assert token.state.key is not None


class TestPinnedOutputs:
    """Exact powersim outputs, frozen so a refactor cannot drift them."""

    GRID = {
        (20.0, 0): 0.925, (20.0, 10): 1.0, (20.0, 20): 1.0, (20.0, 30): 1.0,
        (40.0, 0): 0.45, (40.0, 10): 1.0, (40.0, 20): 1.0, (40.0, 30): 1.0,
        (60.0, 0): 0.075, (60.0, 10): 0.925, (60.0, 20): 1.0, (60.0, 30): 1.0,
    }

    def test_success_rate_grid(self):
        for (distance, sleep), rate in self.GRID.items():
            assert ps.success_rate(distance, sleep, trials=40, seed=2024) == rate

    # (distance, sleep, seed, trial) ->
    # (success, latency_ms, failed_op, end v_cap, end cycles_consumed)
    SESSIONS = [
        ((20.0, 10, 1, 0),
         (True, 146.2417588844369, None, 2.936837287919067, 111358)),
        ((40.0, 0, 2024, 3),
         (False, 520.8629758136041, "fe-gen", 1.8, 66551)),
        ((40.0, 30, 2024, 3),
         (True, 856.4638010491904, None, 2.248135612833776, 111358)),
        ((60.0, 20, 7, 5),
         (True, 450.1299259170455, None, 2.464678650912931, 111358)),
    ]

    @pytest.mark.parametrize("setting,expected", SESSIONS)
    def test_cold_start_session(self, setting, expected):
        distance, sleep, seed, trial = setting
        res = ps.cold_start_session(distance, sleep, seed, trial=trial)
        got = (res.success, res.latency_ms, res.failed_op,
               res.state.v_cap, res.state.cycles_consumed)
        assert got == expected
        assert res.state.time_ms == res.latency_ms

    def test_charge_failure(self):
        res = ps.cold_start_session(40.0, 0, seed=1, kappa=0.0)
        assert (res.success, res.failed_op) == (False, "charge")
        assert math.isinf(res.latency_ms)
        assert res.state.v_cap == 0.0 and res.state.cycles_consumed == 0

    @pytest.mark.parametrize("setting,events,digest", [
        ((40.0, 10, 2024, 2), 24, "bd0d1bbfd263be3c"),
        ((40.0, 0, 2024, 3), 9, "266a37423c14da39"),
    ])
    def test_trace(self, setting, events, digest):
        distance, sleep, seed, trial = setting
        trace = []
        ps.cold_start_session(distance, sleep, seed, trial=trial, trace=trace)
        text = ps.trace_to_tsv(trace)
        assert len(trace) == events
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.fixture(scope="module")
def rig():
    device = puf.synth_device(seed=11)
    record = enroll.enroll_device(device, "tok-pw")
    db = protocol.ProverDb()
    db.add(record)
    return device, record, db


def powered_session(rig, image, harvest, session_seed=3, channel_cls=protocol.Channel):
    device, record, db = rig
    token = protocol.TokenSim(device, record.crp_map, session_seed=session_seed,
                              harvest=harvest)
    channel = channel_cls(token)
    return protocol.prover_update(db, "tok-pw", image, channel), token, channel


def image_of(size, seed=5):
    return protocol.FirmwareImage(random.Random(seed).randbytes(size))


class TestPoweredToken:
    """A TokenSim with a harvest charges the work it actually does."""

    @pytest.mark.parametrize("image", ["boot-shim", "blinky"])
    @pytest.mark.parametrize("drops", [(), (4,)])
    def test_unbounded_harvest_matches_unpowered(self, rig, image, drops):
        img = protocol.demo_images()[image]
        policy = protocol.TamperPolicy(drops=frozenset(drops))
        for seed in range(4):
            runs = []
            for harvest in (None, ps.Harvest(1e-160, 30, 16.0)):
                out, _, channel = powered_session(
                    rig, img, harvest, session_seed=seed,
                    channel_cls=lambda token: protocol.Channel(token, policy))
                runs.append((out, [f.to_hex() for f in channel.frames]))
            assert runs[0] == runs[1]

    def test_unpowered_token_charges_nothing(self, rig, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("energy work on an unpowered token")

        for name in ("run_ops", "charge", "time_to_voltage"):
            monkeypatch.setattr(ps, name, forbidden)
        decodes = []
        decode = gen2.decode
        monkeypatch.setattr(gen2, "decode", lambda f: decodes.append(f) or decode(f))
        out, token, channel = powered_session(
            rig, protocol.demo_images()["blinky"], None)
        assert out is protocol.UpdateOutcome.COMMITTED
        assert token.energy is None
        assert len(decodes) == len(channel.frames)   # token_handle's own decode

    @pytest.mark.parametrize("image", ["boot-shim", "blinky"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cycles_are_the_work_the_token_did(self, rig, image, seed):
        img = protocol.demo_images()[image]
        out, token, channel = powered_session(
            rig, img, ps.Harvest(20.0, 10, ps.draw_kappa(seed, 0)), session_seed=seed)
        assert out is protocol.UpdateOutcome.COMMITTED
        # user-code boot, update boot after the privilege frame, user-code
        # boot after the commit
        assert token.boot_count == 3
        boots = 2 * ps.TEMP_CHECK_CYCLES + sum(op.cycles for op in ps.UPDATE_BOOT_OPS)
        frames = len(channel.frames) * ps.FRAME_CYCLES
        assert len(channel.frames) == 4 + math.ceil(img.total_bytes / 64)
        tag = ps.mac_cost(img.total_bytes + 16)
        assert token.energy.cycles_consumed == boots + frames + tag
        assert token.energy.time_ms >= token.energy.cycles_consumed / ps.CYCLES_PER_MS

    def test_brownouts_in_every_phase_keep_the_invariants(self, rig, monkeypatch):
        failed_ops = []
        run_ops = ps.run_ops

        def recording(ops, sleep_ms, state, trace=None):
            res = run_ops(ops, sleep_ms, state, trace)
            if not res.success:
                failed_ops.append(res.failed_op)
            return res

        monkeypatch.setattr(ps, "run_ops", recording)
        where = set()
        violations = []

        class Watched(protocol.Channel):
            def send(self, frame):
                seen = len(failed_ops)
                reply = super().send(frame)
                if len(failed_ops) > seen:
                    view = gen2.decode(frame)
                    chunk = isinstance(view, BlockWrite) and view.membank == 3
                    op = failed_ops[-1]
                    where.add("chunk" if op == "frame" and chunk else op)
                self.check()
                return reply

            def reset_token(self):
                seen = len(failed_ops)
                super().reset_token()
                where.update(failed_ops[seen:])
                self.check()

            def check(self):
                if self.token.brownout_pending and not self.token.state.volatile_cleared():
                    violations.append(self.token.boot_count)

        img = image_of(2048)
        expected_app = img.assemble() + bytes(8192 - img.total_bytes)
        outcomes = set()
        for distance in (40.0, 50.0):
            for sleep in (0, 10):
                for i in range(12):
                    harvest = ps.Harvest(distance, sleep, 4.0 * 1.25**i)
                    out, token, _ = powered_session(rig, img, harvest,
                                                    channel_cls=Watched)
                    outcomes.add(out)
                    app = bytes(token.nvm.app_area)
                    assert app in (bytes(8192), expected_app)
                    if out is protocol.UpdateOutcome.COMMITTED:
                        assert app == expected_app
        assert {"fe-gen", "chunk", "mac"} <= where
        assert violations == []
        assert outcomes == {protocol.UpdateOutcome.COMMITTED,
                            protocol.UpdateOutcome.BROWNOUT_ABORTED}

    def test_undecodable_frame_in_an_update_costs_one_frame(self, rig):
        """A bit-flipped tag frame costs FRAME alone: no tag check runs on a
        frame the token cannot decode, and the token stays silent."""
        device, record, _ = rig
        harvest = ps.Harvest(20.0, 0, ps.draw_kappa(0, 0))
        token = protocol.TokenSim(device, record.crp_map, session_seed=3, harvest=harvest)
        setup = protocol.UpdateSetup(64, 0, protocol.METHOD_CMAC_AES128).to_words()
        for view in (TagPrivilege(),
                     BlockWrite(membank=0, wordptr=protocol.SETUP_WORDPTR, words=setup),
                     gen2.Authenticate(csi=protocol.CSI_CMAC_AES128)):
            assert token.deliver(encode(view, 0)) is not None
        assert token.state.mode is protocol.TokenMode.FIRMWARE_UPDATE
        tag = encode(gen2.SecureComm(inner_wordptr=0, ciphertext=bytes(16)), 0)
        before = token.energy
        assert token.deliver(gen2.Gen2Frame(bits=tag.bits.flip(30))) is None
        assert token.energy == ps.run_ops((ps.FRAME,), harvest.sleep_ms, before).state
        assert token.state.mode is protocol.TokenMode.FIRMWARE_UPDATE

    def test_rejected_oversized_image_costs_less_than_a_commit(self, rig):
        harvest = ps.Harvest(20.0, 0, ps.draw_kappa(0, 0))
        rejected, small, _ = powered_session(rig, image_of(9000), harvest)
        committed, big, _ = powered_session(rig, image_of(8192), harvest)
        assert rejected is protocol.UpdateOutcome.REJECTED_BY_TOKEN
        assert committed is protocol.UpdateOutcome.COMMITTED
        assert small.energy.time_ms < big.energy.time_ms
