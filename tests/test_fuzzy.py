"""Reverse fuzzy extractor tests.

Frozen analytic values were computed by a standalone exact-arithmetic
script (Fraction-based binomial CDF, direct log2 evaluation) before being
pinned here.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfidsim import bch, fuzzy

# frozen oracle values
PFAIL_DEFAULT_AT_0094 = 0.0016031772430667986
PFAIL_63_5_AT_0094 = 7.450640477041816e-07
HMIN_BIAS_4990 = 127.28513788378592
HMIN_BIAS_5374 = 102.19107983699828


def toy_config() -> fuzzy.FeConfig:
    return fuzzy.FeConfig(code=bch.make_code(7, 4, 1), blocks=1)


def cfg63() -> fuzzy.FeConfig:
    return fuzzy.FeConfig(code=bch.make_code(63, 24, 7), blocks=5)


def random_response(rng: random.Random, cfg: fuzzy.FeConfig) -> int:
    return sum(rng.randint(0, 1) << i for i in range(cfg.response_bits))


def flip_within_t(rng, r, cfg, max_flips=None):
    """Flip at most min(t, max_flips) bits in every block."""
    out = r
    n, t = cfg.code.n, cfg.code.t
    limit = t if max_flips is None else min(t, max_flips)
    total = 0
    for b in range(cfg.blocks):
        for p in rng.sample(range(n), rng.randint(0, limit)):
            out ^= 1 << (b * n + p)
            total += 1
    return out, total


def test_default_config_shape():
    cfg = fuzzy.default_config()
    assert cfg.response_bits == 248
    assert cfg.key_bits == 128
    assert cfg.helper_bits == 120


def test_fe_gen_all_zeros_toy():
    key, helper = fuzzy.fe_gen(0, toy_config())
    assert helper == 0
    assert key == 0


def test_fe_gen_output_lengths_default():
    cfg = fuzzy.default_config()
    rng = random.Random(3)
    key, helper = fuzzy.fe_gen(random_response(rng, cfg), cfg)
    assert helper < 1 << 120
    assert key < 1 << 128


def test_fe_gen_length_mismatch():
    with pytest.raises(ValueError):
        fuzzy.fe_gen(1 << 248, fuzzy.default_config())


def test_fe_rec_length_mismatch():
    cfg = fuzzy.default_config()
    with pytest.raises(ValueError):
        fuzzy.fe_rec(1 << 248, 0, cfg)
    with pytest.raises(ValueError):
        fuzzy.fe_rec(0, 1 << 120, cfg)


def test_noiseless_self_consistency():
    cfg = fuzzy.default_config()
    rng = random.Random(11)
    for _ in range(20):
        r = random_response(rng, cfg)
        key, helper = fuzzy.fe_gen(r, cfg)
        assert fuzzy.fe_rec(r, helper, cfg) == key


@pytest.mark.parametrize("make_cfg", [fuzzy.default_config, cfg63, toy_config])
def test_recovery_with_noise_within_t(make_cfg):
    cfg = make_cfg()
    rng = random.Random(42)
    for _ in range(60):
        r = random_response(rng, cfg)
        key, helper = fuzzy.fe_gen(r, cfg)
        noisy_prime, _ = flip_within_t(rng, r, cfg)
        # prover holds noisy_prime as its enrolled copy; device read r
        assert fuzzy.fe_rec(noisy_prime, helper, cfg) == key


def test_heavy_noise_fails_or_mismatches():
    cfg = fuzzy.default_config()
    rng = random.Random(17)
    bad = 0
    for _ in range(100):
        r = random_response(rng, cfg)
        key, helper = fuzzy.fe_gen(r, cfg)
        noisy = r
        for p in rng.sample(range(31), 7):  # 7 flips in block 0
            noisy ^= 1 << p
        try:
            rec = fuzzy.fe_rec(noisy, helper, cfg)
            if rec != key:
                bad += 1
        except fuzzy.KeyRecoveryFailure:
            bad += 1
    assert bad == 100


def test_reusability_multiple_helper_exposures():
    # two noisy readouts of the same enrolled response give different helper
    # data, yet the prover recovers each session's key from its stored copy
    cfg = fuzzy.default_config()
    rng = random.Random(8)
    enrolled = random_response(rng, cfg)
    readout1, flips1 = flip_within_t(rng, enrolled, cfg, max_flips=1)
    readout2, _ = flip_within_t(rng, enrolled, cfg, max_flips=2)
    key1, h1 = fuzzy.fe_gen(readout1, cfg)
    key2, h2 = fuzzy.fe_gen(readout2, cfg)
    assert h1 != h2 or readout1 == readout2
    assert fuzzy.fe_rec(enrolled, h1, cfg) == key1
    assert fuzzy.fe_rec(enrolled, h2, cfg) == key2


def test_key_failure_prob_paper_points():
    assert fuzzy.key_failure_prob(0.0094, fuzzy.default_config()) == pytest.approx(
        PFAIL_DEFAULT_AT_0094, rel=1e-12
    )
    assert fuzzy.key_failure_prob(0.0094, cfg63()) == pytest.approx(
        PFAIL_63_5_AT_0094, rel=1e-12
    )
    # published working-point values
    assert abs(fuzzy.key_failure_prob(0.0094, fuzzy.default_config()) - 0.0016) < 5e-5
    assert fuzzy.key_failure_prob(0.0094, cfg63()) == pytest.approx(7.4506e-7, rel=0.02)


def test_key_failure_prob_edges():
    cfg = fuzzy.default_config()
    assert fuzzy.key_failure_prob(0.0, cfg) == 0.0
    assert fuzzy.key_failure_prob(1.0, cfg) == 1.0
    with pytest.raises(ValueError):
        fuzzy.key_failure_prob(-0.1, cfg)


def test_key_failure_prob_runtime():
    cfg = fuzzy.default_config()
    start = time.perf_counter()
    for _ in range(100):
        fuzzy.key_failure_prob(0.0094, cfg)
    assert time.perf_counter() - start < 1.0


def test_residual_min_entropy_values():
    cfg = fuzzy.default_config()
    assert fuzzy.residual_min_entropy(0.5, cfg) == 128.0
    assert fuzzy.residual_min_entropy(0.4990, cfg) == pytest.approx(
        HMIN_BIAS_4990, rel=1e-12
    )
    assert fuzzy.residual_min_entropy(0.5374, cfg) == pytest.approx(
        HMIN_BIAS_5374, rel=1e-12
    )
    assert fuzzy.residual_min_entropy(0.5374, cfg) < 128.0


@settings(max_examples=80, deadline=None)
@given(st.floats(0.001, 0.499))
def test_residual_min_entropy_symmetric_and_below_max(delta):
    cfg = fuzzy.default_config()
    lo = fuzzy.residual_min_entropy(0.5 - delta, cfg)
    hi = fuzzy.residual_min_entropy(0.5 + delta, cfg)
    assert lo == pytest.approx(hi, rel=1e-9)
    assert lo < 128.0


def test_residual_min_entropy_monotone_in_deviation():
    cfg = fuzzy.default_config()
    values = [fuzzy.residual_min_entropy(0.5 + d, cfg) for d in np.linspace(0, 0.45, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_coset_candidates_toy_size():
    cfg = toy_config()
    rng = random.Random(2)
    r = random_response(rng, cfg)
    _, helper = fuzzy.fe_gen(r, cfg)
    candidates = list(fuzzy.coset_candidates(helper, cfg))
    assert len(candidates) == 16
    assert r in candidates
    # candidates are exactly one syndrome coset
    for c in candidates:
        assert bch.syndrome(c, cfg.code) == helper


def test_coset_candidates_rejects_full_scale():
    with pytest.raises(ValueError):
        list(fuzzy.coset_candidates(0, fuzzy.default_config()))


def test_vectorized_kernel_matches_scalar_api():
    cfg = fuzzy.default_config()
    rng = np.random.default_rng(77)
    sessions = 1500
    shape = (sessions, cfg.blocks, cfg.code.n)
    r = rng.integers(0, 2, size=shape, dtype=np.uint8)
    # mixed noise: mostly light, some blocks pushed past t
    e = (rng.random(size=shape) < 0.03).astype(np.uint8)
    # the kernel sees only the error masks; the scalar side keeps a random
    # enrolled response, so agreement shows that r cancels out
    masks = (e.astype(np.int64) << np.arange(cfg.code.n)).sum(axis=2)
    failed_vec = fuzzy.run_sessions(masks, cfg)
    for s in range(sessions):
        enrolled = sum(int(b) << i for i, b in enumerate(r[s].reshape(-1)))
        readout = sum(int(b) << i for i, b in enumerate((r[s] ^ e[s]).reshape(-1)))
        key_dev, helper = fuzzy.fe_gen(readout, cfg)
        try:
            recovered = fuzzy.fe_rec(enrolled, helper, cfg)
            scalar_failed = recovered != key_dev
        except fuzzy.KeyRecoveryFailure:
            scalar_failed = True
        assert scalar_failed == bool(failed_vec[s]), f"session {s}"


@pytest.mark.parametrize("n,k,t,blocks,ber", [(7, 4, 1, 4, 0.2), (31, 16, 3, 8, 0.1)])
def test_run_sessions_fails_exactly_when_a_block_exceeds_t(n, k, t, blocks, ber):
    """bch.correct decodes up to t errors, and the code's distance is at least
    2t + 1. A block of weight <= t thus decodes to its own error mask. A
    heavier one either fails to decode or decodes to e' != e with the same
    syndrome; e ^ e' is then a nonzero codeword, whose information bits are
    nonzero because the code is systematic, so the keys differ."""
    cfg = fuzzy.FeConfig(code=bch.make_code(n, k, t), blocks=blocks)
    e = fuzzy.error_masks(np.random.default_rng(4242), (3000, blocks), n, ber)
    want = [any(m.bit_count() > t for m in row) for row in e.tolist()]
    assert 0 < sum(want) < len(want)
    assert fuzzy.run_sessions(e, cfg).tolist() == want


@pytest.mark.parametrize("n,ber", [(31, 0.0094), (31, 0.2), (31, 0.8), (63, 0.2)])
def test_error_masks_are_bernoulli(n, ber):
    rows = 40_000
    masks = fuzzy.error_masks(np.random.default_rng(5), (rows, 4), n, ber)
    assert masks.shape == (rows, 4) and masks.dtype == np.int64
    assert ((masks >= 0) & (masks < 1 << n)).all()
    blocks = masks.reshape(-1)
    bits = (blocks[:, None] >> np.arange(n)) & 1
    # every position errs with probability ber ...
    se = np.sqrt(ber * (1 - ber) / blocks.size)
    assert np.abs(bits.mean(axis=0) - ber).max() < 5 * se
    # ... and a block's weight is Binomial(n, ber)
    counts = np.bincount(bits.sum(axis=1), minlength=n + 1)
    pmf = np.array([math.comb(n, w) * ber**w * (1 - ber) ** (n - w) for w in range(n + 1)])
    expected = blocks.size * pmf
    se_counts = np.sqrt(blocks.size * pmf * (1 - pmf))
    assert (np.abs(counts - expected) <= 5 * se_counts).all()


def test_error_masks_every_position_of_a_call_can_err():
    # one block per call, so the first and last bit of every call are counted
    rng = np.random.default_rng(6)
    masks = np.concatenate([fuzzy.error_masks(rng, (1,), 31, 0.3) for _ in range(2000)])
    bits = (masks[:, None] >> np.arange(31)) & 1
    se = math.sqrt(0.3 * 0.7 / masks.size)
    assert np.abs(bits.mean(axis=0) - 0.3).max() < 5 * se


@pytest.mark.parametrize("ber", [0.005, 0.0094, 0.02, 0.04])
def test_mc_key_failure_matches_analytic_sweep(ber):
    cfg = fuzzy.default_config()
    res = fuzzy.mc_key_failure(ber, cfg, sessions=200_000, seed=31)
    p = fuzzy.key_failure_prob(ber, cfg)
    se = (p * (1 - p) / res.sessions) ** 0.5
    assert abs(res.rate - p) < 4 * se


@pytest.mark.parametrize("n,k,t,blocks,ber", [(31, 16, 3, 8, 0.03), (63, 24, 7, 5, 0.06)])
def test_scalar_decoder_matches_analytic_rate(n, k, t, blocks, ber):
    """The decoder the protocol runs (fe_gen/fe_rec through bch.correct)
    fails at the analytic rate: 1,000 sessions, within 4 SE."""
    cfg = fuzzy.FeConfig(code=bch.make_code(n, k, t), blocks=blocks)
    sessions = 1000
    rng = np.random.default_rng(1019)
    e = fuzzy.error_masks(rng, (sessions, blocks), n, ber)
    enrolled = rng.integers(0, 1 << n, size=(sessions, blocks), dtype=np.uint64)
    failures = 0
    for r_blocks, e_blocks in zip(enrolled.tolist(), e.tolist()):
        r = sum(b << (i * n) for i, b in enumerate(r_blocks))
        err = sum(b << (i * n) for i, b in enumerate(e_blocks))
        key, helper = fuzzy.fe_gen(r ^ err, cfg)
        try:
            failures += fuzzy.fe_rec(r, helper, cfg) != key
        except fuzzy.KeyRecoveryFailure:
            failures += 1
    p = fuzzy.key_failure_prob(ber, cfg)
    se = (p * (1 - p) / sessions) ** 0.5
    assert abs(failures / sessions - p) < 4 * se


@pytest.mark.parametrize("ber", [-0.1, 1.5, float("nan")])
def test_mc_key_failure_rejects_bad_ber(ber):
    with pytest.raises(ValueError):
        fuzzy.mc_key_failure(ber, fuzzy.default_config(), sessions=10, seed=1)


@pytest.mark.parametrize("sessions,seed", [(0, 10), (-1, 10)])
def test_mc_key_failure_rejects_no_sessions(sessions, seed):
    with pytest.raises(ValueError):
        fuzzy.mc_key_failure(0.01, fuzzy.default_config(), sessions=sessions, seed=seed)


class _NoGeometric:
    """A generator that refuses geometric draws and passes on the rest."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def geometric(self, *args, **kwargs):
        raise AssertionError("geometric drawn")

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_mc_key_failure_zero_ber_draws_nothing(monkeypatch):
    monkeypatch.setattr(fuzzy.np.random, "default_rng", _NoGeometric)
    res = fuzzy.mc_key_failure(0.0, fuzzy.default_config(), sessions=1000, seed=1)
    assert (res.sessions, res.failures) == (1000, 0)


def test_mc_key_failure_unit_ber_fails_every_session():
    res = fuzzy.mc_key_failure(1.0, fuzzy.default_config(), sessions=1000, seed=1)
    assert (res.sessions, res.failures) == (1000, 1000)


def test_mc_key_failure_converges_small():
    # 10^5-session smoke run; the full 10^6 criterion lives in the
    # acceptance suite
    cfg = fuzzy.default_config()
    res = fuzzy.mc_key_failure(0.0094, cfg, sessions=100_000, seed=9)
    p = PFAIL_DEFAULT_AT_0094
    se = (p * (1 - p) / res.sessions) ** 0.5
    assert abs(res.rate - p) < 4 * se


def test_decode_tables_reject_large_code():
    with pytest.raises(ValueError):
        fuzzy.build_decode_tables(bch.make_code(63, 24, 7))


def _correct_or_minus_one(s, code):
    try:
        return bch.correct(0, s, code)
    except bch.DecodeFailure:
        return -1


@pytest.mark.parametrize("n,k,t", [(7, 4, 1), (31, 16, 3)])
def test_leader_table_agrees_with_scalar_decoder(n, k, t):
    """The Monte-Carlo's coset-leader table and the protocol's bch.correct
    decode every checked syndrome to the same error mask (-1: no correction).

    (7,4,1) is checked exhaustively. For (31,16,3), every syndrome with a
    leader is checked, plus a seeded sample of 2,000 of the rest.
    """
    code = bch.make_code(n, k, t)
    leaders = fuzzy.build_decode_tables(code).leaders
    with_leader = np.flatnonzero(leaders >= 0)
    without = np.flatnonzero(leaders < 0)
    if len(without) > 2000:
        without = np.random.default_rng(20_250_301).choice(without, 2000, replace=False)
    for s in np.concatenate([with_leader, without]).tolist():
        assert leaders[s] == _correct_or_minus_one(s, code), s
    if n == 31:
        assert len(with_leader) == 4992
