"""End-to-end acceptance gate.

Ten criteria covering the analytic failure model, the Monte-Carlo
agreement, exhaustive toy-code decoding, CMAC known answers, the
enrollment pipeline, the entropy formula, channel-tamper fuzzing, the
air-interface codec, intermittent-power trends, and the brownout
volatility invariant. Each test prints one PASS/FAIL line.
"""

import math
import time

import numpy as np
import pytest

from crfidsim import bch, enroll, fuzzy, mac, powersim, protocol, puf
from crfidsim.gen2 import (
    Authenticate,
    BadCrcError,
    BitString,
    BlockWrite,
    Gen2Frame,
    SecureComm,
    TagPrivilege,
    crc16,
    decode,
    encode,
    parse_fields,
    residue_ok,
)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {num:2d}: "
              f"{'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def rig():
    device = puf.synth_device(seed=11)
    record = enroll.enroll_device(device, "tok-acc")
    db = protocol.ProverDb()
    db.add(record)
    image = protocol.demo_images()["boot-shim"]
    return device, record, db, image


def test_criterion_01_analytic_failure_rate(capsys):
    t0 = time.perf_counter()
    cfg8 = fuzzy.default_config()
    p8 = fuzzy.key_failure_prob(0.0094, cfg8)
    cfg5 = fuzzy.FeConfig(code=bch.make_code(63, 24, 7), blocks=5)
    p5 = fuzzy.key_failure_prob(0.0094, cfg5)
    dt = time.perf_counter() - t0
    ok = (
        abs(p8 - 0.0016) <= 5e-5
        and p8 == pytest.approx(0.0016031772430667986, rel=1e-12)
        and p5 == pytest.approx(7.45e-7, rel=0.02)
        and p5 == pytest.approx(7.450640477041816e-07, rel=1e-12)
        and dt < 1.0
    )
    _report(capsys, 1, ok,
            f"P_fail(0.0094) = {p8:.6g} (8x(31,16,3)), {p5:.3g} "
            f"(5x(63,24,7)) in {dt * 1000:.0f} ms")


def test_criterion_02_monte_carlo_agreement(capsys):
    cfg = fuzzy.default_config()
    analytic = fuzzy.key_failure_prob(0.0094, cfg)
    res = fuzzy.mc_key_failure(0.0094, cfg, sessions=1_000_000, seed=1001)
    se = math.sqrt(analytic * (1.0 - analytic) / res.sessions)
    dev = abs(res.rate - analytic) / se
    ok = res.sessions >= 1_000_000 and dev <= 3.0
    _report(capsys, 2, ok,
            f"MC rate {res.rate:.6g} vs analytic {analytic:.6g} "
            f"({dev:.2f} standard errors, n = {res.sessions})")


def test_criterion_03_exhaustive_toy_code(capsys):
    code = bch.make_code(7, 4, 1)
    zero = 0
    decode_ok = True
    for msg_int in range(16):
        msg = msg_int
        cw = bch.encode(msg, code)
        patterns = [0]
        patterns += [1 << j for j in range(7)]
        for e in patterns:
            got = bch.correct(cw ^ e, zero, code)
            decode_ok &= got == cw

    cfg = fuzzy.FeConfig(code=code, blocks=1)
    coset_ok = True
    by_syndrome = {}
    for w in range(128):
        word = w
        s = bch.syndrome(word, code)
        by_syndrome.setdefault(s, set()).add(word)
    coset_ok &= len(by_syndrome) == 8
    for s, members in by_syndrome.items():
        cands = set(fuzzy.coset_candidates(s, cfg))
        coset_ok &= len(cands) == 16 and cands == members

    ok = decode_ok and coset_ok
    _report(capsys, 3, ok,
            "BCH(7,4,1): 16 codewords x 8 error patterns decode exactly; "
            "8 syndrome cosets of 2^4 candidates each")


def test_criterion_04_cmac_known_answers(capsys):
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    msg = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710"
    )
    vectors = {
        0: "bb1d6929e95937287fa37d129b756746",
        16: "070a16b46b4d4144f79bdd9dd04a287c",
        40: "dfa66747de9ae63030ca32611497c827",
        64: "51f0bebf7e3b9d92fc49741779363cfe",
    }
    ok = all(
        mac.cmac(key, msg[:length]).hex() == want
        for length, want in vectors.items()
    )
    _report(capsys, 4, ok, "all four AES-128 CMAC reference vectors bit-exact")


def test_criterion_05_enrollment_reproduction(capsys):
    bers = []
    pooled_ones = 0
    pooled_bits = 0
    for seed in (11, 12, 13):
        device = puf.synth_device(seed=seed)
        record = enroll.enroll_device(device, f"acc-{seed}")
        bers.append(enroll.measure_pipeline_ber(
            device, record, temperatures=(0.0, 20.0, 40.0),
            trials_per_temp=5, trial_seed_base=700_000,
        ))
        for j in range(30):
            r = puf.readout(device, enroll.NOMINAL_TEMP, trial_seed=800_000 + j)
            for c in range(len(record.crp_map)):
                bits = enroll.challenge_to_response(record.crp_map, c, r)
                pooled_ones += bits.bit_count()
                pooled_bits += enroll.BLOCK_BITS
    bias = pooled_ones / pooled_bits

    effs = {}
    for blocks in (2, 4, 8):
        crp = enroll.CrpBlockMap(blocks=tuple(
            tuple(range(40 * i, 40 * i + 31)) for i in range(blocks)
        ))
        effs[blocks] = f"{100 * enroll.efficiency(crp):.3g}"

    ok = (
        max(bers) <= 0.0094
        and abs(bias - 0.499) <= 0.005
        and effs == {2: "5.58", 4: "11.2", 8: "22.3"}
    )
    _report(capsys, 5, ok,
            f"pipeline BER max {max(bers):.4g} <= 0.0094, pooled bias "
            f"{bias:.4f}, efficiency rows {effs[2]}/{effs[4]}/{effs[8]} %")


def test_criterion_06_entropy_formula(capsys):
    cfg = fuzzy.default_config()
    exact = fuzzy.residual_min_entropy(0.5, cfg)
    sweep = [fuzzy.residual_min_entropy(b, cfg)
             for b in np.linspace(0.5, 0.56, 25)]
    monotone = all(a > b for a, b in zip(sweep, sweep[1:]))
    symmetric = all(
        fuzzy.residual_min_entropy(0.5 + d, cfg)
        == fuzzy.residual_min_entropy(0.5 - d, cfg)
        for d in (0.001, 0.01, 0.04)
    )
    frozen = (
        fuzzy.residual_min_entropy(0.4990, cfg)
        == pytest.approx(127.28513788378592, rel=1e-12)
        and fuzzy.residual_min_entropy(0.5374, cfg)
        == pytest.approx(102.19107983699828, rel=1e-12)
    )
    ok = exact == 128.0 and monotone and symmetric and frozen
    _report(capsys, 6, ok,
            f"H_min(0.5) = {exact} exactly; strictly decreasing in |b-1/2|")


class _FuzzChannel(protocol.Channel):
    """One randomized action per session, on either direction of the link.

    Flips, drops and payload mutations go through the library's
    TamperPolicy; the other kinds are applied here around Channel.send.
    """

    def __init__(self, token, kind, at, bit):
        super().__init__(token, protocol.TamperPolicy(
            flips={at: (bit,)} if kind == "flip" else {},
            drops=frozenset({at}) if kind == "drop" else frozenset(),
            mutations=frozenset({at}) if kind == "mutate" else frozenset(),
        ))
        self.kind, self.at, self.bit = kind, at, bit
        self.volatility_violations = 0

    def send(self, frame):
        hit = self.counter == self.at
        if hit and self.kind == "brownout":
            self.token.inject_brownout()
            self.volatility_violations += not self.token.state.volatile_cleared()
        reply = super().send(frame)
        if hit and self.kind == "replay":
            reply = super().send(frame)
        if hit and isinstance(reply, protocol.AuthReply):
            if self.kind == "nonce":
                raw = bytearray(reply.nonce)
                raw[self.bit % len(raw)] ^= 1 << (self.bit % 8)
                reply = protocol.AuthReply(bytes(raw), reply.challenge,
                                           reply.helper)
            elif self.kind == "helper":
                raw = bytearray(reply.helper)
                raw[self.bit % len(raw)] ^= 1 << (self.bit % 8)
                reply = protocol.AuthReply(reply.nonce, reply.challenge,
                                           bytes(raw))
        return reply


KINDS = ("flip", "flip", "flip", "mutate", "drop", "replay",
         "nonce", "helper", "brownout")


def test_criterion_07_and_10_tamper_fuzzing(capsys, rig):
    device, record, db, image = rig
    expected_app = image.assemble() + bytes(8192 - image.total_bytes)
    clean_app = bytes(8192)
    sessions = 10_000
    rng = np.random.default_rng(20_240_817)

    wrong_bytes = 0
    false_success = 0
    volatility_violations = 0
    outcomes = {}
    for i in range(sessions):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        at = int(rng.integers(0, 8))
        bit = int(rng.integers(0, 512))
        token = protocol.TokenSim(device, record.crp_map,
                                  session_seed=50_000 + i)
        channel = _FuzzChannel(token, kind, at, bit)
        outcome = protocol.prover_update(db, "tok-acc", image, channel)
        outcomes[outcome.name] = outcomes.get(outcome.name, 0) + 1
        volatility_violations += channel.volatility_violations
        app = bytes(token.state.nvm.app_area)
        # safety: the application area only ever holds its original
        # content or the exact pushed image, never a mixture
        if app != clean_app and app != expected_app:
            wrong_bytes += 1
        # honesty: a success report always means the exact image landed
        if (outcome is protocol.UpdateOutcome.COMMITTED
                and app != expected_app):
            false_success += 1

    control_failures = 0
    for i in range(300):
        token = protocol.TokenSim(device, record.crp_map,
                                  session_seed=90_000 + i)
        channel = protocol.Channel(token, protocol.TamperPolicy())
        outcome = protocol.prover_update(db, "tok-acc", image, channel)
        if (outcome is not protocol.UpdateOutcome.COMMITTED
                or bytes(token.state.nvm.app_area) != expected_app):
            control_failures += 1

    ok7 = wrong_bytes == 0 and false_success == 0 and control_failures == 0
    _report(capsys, 7, ok7,
            f"{sessions} fuzzed sessions: {wrong_bytes} corrupted commits, "
            f"{false_success} false success reports (outcomes {outcomes}); "
            f"{300 - control_failures}/300 clean sessions committed")

    # stale-key completion attempts: replay a committed session's frames
    # into a post-brownout reboot
    clean_token = protocol.TokenSim(device, record.crp_map, session_seed=777)
    clean_channel = protocol.Channel(clean_token, protocol.TamperPolicy())
    assert protocol.prover_update(
        db, "tok-acc", image, clean_channel
    ) is protocol.UpdateOutcome.COMMITTED
    recorded = list(clean_channel.frames)

    stale_completions = 0
    for i in range(200):
        token = protocol.TokenSim(device, record.crp_map,
                                  session_seed=100_000 + i)
        channel = protocol.Channel(token, protocol.TamperPolicy())
        for frame in recorded[:3]:           # privilege, setup, authenticate
            channel.send(frame)
        token.inject_brownout()
        if not token.state.volatile_cleared():
            volatility_violations += 1
        if token.deliver(recorded[3]) is not None:   # silent until field cycle
            volatility_violations += 1
        token.power_cycle()
        for frame in recorded:
            channel.send(frame)
        if bytes(token.state.nvm.app_area) != bytes(8192):
            stale_completions += 1

    ok10 = volatility_violations == 0 and stale_completions == 0
    _report(capsys, 10, ok10,
            "volatile state zeroed on every injected brownout; 200 stale-key "
            "replay attempts after reboot, zero completions")


def test_criterion_08_gen2_codec(capsys):
    rng = np.random.default_rng(88)
    round_trip_ok = True
    residues_ok = True
    frames = []
    for _ in range(400):
        choice = rng.integers(4)
        if choice == 0:
            membank = int(rng.choice((0, 3)))
            if membank == 0:
                wordptr = int(rng.integers(0x04, 0x7D))
            else:
                wordptr = int(rng.integers(0, 0x1000))
            words = tuple(int(w) for w in
                          rng.integers(0, 1 << 16, size=rng.integers(1, 12)))
            view = BlockWrite(membank=membank, wordptr=wordptr, words=words)
        elif choice == 1:
            view = Authenticate(csi=int(rng.integers(0, 256)))
        elif choice == 2:
            view = SecureComm(inner_wordptr=int(rng.integers(0, 4096)),
                              ciphertext=bytes(rng.integers(0, 256, size=16,
                                                            dtype=np.uint8)))
        else:
            view = TagPrivilege()
        frame = encode(view, rn=int(rng.integers(0, 1 << 16)))
        frames.append(frame)
        round_trip_ok &= decode(frame) == view
        residues_ok &= residue_ok(frame.bits)

    corruption_ok = True
    for frame in frames[:3]:
        for i in range(frame.bits.length):
            try:
                decode(Gen2Frame(bits=frame.bits.flip(i)))
                corruption_ok = False
            except BadCrcError:
                pass
            except Exception:
                corruption_ok = False

    auth = encode(Authenticate(csi=1), rn=0)
    fields = parse_fields(auth)
    tp = encode(TagPrivilege(), rn=0)
    tp_fields = parse_fields(tp)
    check_bits = BitString(int.from_bytes(b"123456789", "big"), 72)
    discriminator_ok = (
        fields.membank == 0 and fields.wordptr == 0x03
        and tp_fields.membank == 0 and tp_fields.wordptr == 0x7E
        and tp_fields.words == (0x0001,)
        and crc16(check_bits) == 0xD64E
    )
    ok = round_trip_ok and residues_ok and corruption_ok and discriminator_ok
    _report(capsys, 8, ok,
            "400 frames round-trip with residue 0x1D0F; every single-bit "
            "corruption detected; discriminators at WordPtr 3 / 0x7E, MemBank 0")


def test_criterion_09_power_trends(capsys):
    # (a) success non-increasing in distance at fixed sleep
    mono_distance = True
    for sleep in (0, 30):
        rates = [powersim.success_rate(d, sleep, trials=500, seed=42)
                 for d in (20.0, 30.0, 40.0, 50.0, 60.0, 80.0)]
        mono_distance &= all(a >= b for a, b in zip(rates, rates[1:]))

    # (b) success non-decreasing in sleep at fixed distance
    by_sleep = [powersim.success_rate(40.0, s, trials=500, seed=42)
                for s in powersim.SLEEP_CHOICES]
    mono_sleep = (all(a <= b for a, b in zip(by_sleep, by_sleep[1:]))
                  and by_sleep[-1] > by_sleep[0])

    # (c) exact latency accounting
    state = powersim.EnergyState(v_cap=2.5, rate=60.0 / 20.0**2)
    fe_gen = (powersim.PlanOp("fe-gen", powersim.FE_GEN_CYCLES, 8),)
    base = powersim.run_ops(fe_gen, 0, state)
    latency_exact = all(
        powersim.run_ops(fe_gen, s, state).latency_ms == base.latency_ms + 7 * s
        for s in (10, 20, 30)
    )

    # (d) 50 cm budget support overlaps [300k, 600k]
    budgets = powersim.sample_budgets(50.0, 2000, seed=42)
    finite = budgets[np.isfinite(budgets)]
    hits = int(np.count_nonzero((finite >= 300_000) & (finite <= 600_000)))
    overlap = hits > 0

    ok = mono_distance and mono_sleep and latency_exact and overlap
    _report(capsys, 9, ok,
            f"distance/sleep monotone; latency delta exact; {hits}/2000 "
            f"budgets inside [300k, 600k] at 50 cm")
