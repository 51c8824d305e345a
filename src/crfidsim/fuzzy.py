"""Reverse fuzzy extractor over per-block BCH syndromes.

The cheap half (fe_gen) runs on the constrained device: it publishes one
syndrome per response block as helper data and keeps the information-set
bits as the session key. The expensive half (fe_rec) runs on the prover:
it corrects its enrolled copy of the response toward each published
syndrome and re-derives the same key, provided every block is within t
bits of the device's readout.

Key derivation uses the information-set coordinates of each block: for a
linear code those coordinates are a bijection with the syndrome coset, so
the key carries exactly k bits of residual entropy per block and no hash
is needed on the device. Responses, helper data and keys are int bitmasks
in the bit order that bch documents; block i of a response is bits
i*n .. i*n+n-1, and its syndrome and key bits sit at i*(n-k) and i*k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from . import bch


@dataclass(frozen=True)
class FeConfig:
    code: bch.BchParams
    blocks: int

    @property
    def response_bits(self) -> int:
        return self.blocks * self.code.n

    @property
    def key_bits(self) -> int:
        return self.blocks * self.code.k

    @property
    def helper_bits(self) -> int:
        return self.blocks * (self.code.n - self.code.k)


def default_config() -> FeConfig:
    """8 blocks of BCH(31,16,3): 248 response bits, 128 key bits."""
    return FeConfig(code=bch.make_code(31, 16, 3), blocks=8)


def reverse_bits(value: int, nbits: int) -> int:
    """Mirror the low nbits of value, so bit i moves to bit nbits-1-i.

    This is the step between int bit order and MSB-first wire bytes:
    reverse_bits(v, 8 * m).to_bytes(m, "big") puts bit i of v into bit i of
    the byte string, and reverse_bits(int.from_bytes(b, "big"), 8 * len(b))
    reads it back.
    """
    return int(f"{value:0{nbits}b}"[::-1], 2)


class KeyRecoveryFailure(Exception):
    """Some block failed bounded-distance decoding."""


def fe_gen(r: int, cfg: FeConfig) -> tuple[int, int]:
    """(key, helper): key = info-set bits; helper = concatenated per-block syndromes."""
    bch.check_width(r, cfg.response_bits, "response")
    n, k = cfg.code.n, cfg.code.k
    nk, mask = n - k, (1 << n) - 1
    helper = key = 0
    for i in range(cfg.blocks):
        block = (r >> (i * n)) & mask
        helper |= bch.syndrome(block, cfg.code) << (i * nk)
        key |= (block >> nk) << (i * k)
    return key, helper


def fe_rec(r_prime: int, h: int, cfg: FeConfig) -> int:
    """Correct each enrolled block toward its published syndrome.

    Raises KeyRecoveryFailure if any block cannot be decoded; there are no
    partial keys.
    """
    bch.check_width(r_prime, cfg.response_bits, "response")
    bch.check_width(h, cfg.helper_bits, "helper")
    n, k = cfg.code.n, cfg.code.k
    nk, mask = n - k, (1 << n) - 1
    key = 0
    for i in range(cfg.blocks):
        block = (r_prime >> (i * n)) & mask
        target = (h >> (i * nk)) & ((1 << nk) - 1)
        try:
            fixed = bch.correct(block, target, cfg.code)
        except bch.DecodeFailure as exc:
            raise KeyRecoveryFailure(f"block {i}: {exc}") from exc
        key |= (fixed >> nk) << (i * k)
    return key


# ------------------------------------------------------------------ analytics

def _binom_cdf(t: int, n: int, p: float) -> float:
    # direct summation, n <= 63 terms; double precision throughout
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(t + 1))


def key_failure_prob(ber: float, cfg: FeConfig) -> float:
    """Probability that at least one block exceeds t errors.

    Per-block failure is 1 - BinomialCDF(t; n, ber); blocks fail
    independently.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be in [0, 1]")
    p1 = 1.0 - _binom_cdf(cfg.code.t, cfg.code.n, ber)
    return 1.0 - (1.0 - p1) ** cfg.blocks


def residual_min_entropy(bias: float, cfg: FeConfig) -> float:
    """Min-entropy of the key after publishing n-k helper bits per block."""
    if not 0.0 < bias < 1.0:
        raise ValueError("bias must be in (0, 1)")
    n, k = cfg.code.n, cfg.code.k
    per_block = -n * math.log2(max(bias, 1.0 - bias)) - (n - k)
    return cfg.blocks * per_block


def coset_candidates(h: int, cfg: FeConfig) -> Iterator[int]:
    """All responses consistent with the given helper data (toy scale only).

    Enumerates every length-(blocks*n) word whose per-block syndromes equal
    the helper. Feasible only for a single small block; used by the attack
    demonstration.
    """
    if cfg.blocks != 1 or cfg.code.n > 20:
        raise ValueError("coset enumeration is only supported at toy scale")
    for w in range(1 << cfg.code.n):
        if bch.syndrome(w, cfg.code) == h:
            yield w


def build_decode_tables(code: bch.BchParams) -> np.ndarray:
    """Coset-leader table: (2^(n-k),) int64, the error mask of weight <= t
    with each syndrome, -1 if none.

    No simulation path reads it. It is the exhaustive oracle that
    tests/test_fuzzy.py checks bch.correct against, and bench/tracing.py
    still names it as a traced target.
    """
    nk = code.n - code.k
    if nk > 20:
        raise ValueError("coset-leader table too large for this code")
    unit = [bch.syndrome(1 << i, code) for i in range(code.n)]
    leaders = np.full(1 << nk, -1, dtype=np.int64)
    leaders[0] = 0
    for weight in range(1, code.t + 1):
        for positions in combinations(range(code.n), weight):
            idx = 0
            mask = 0
            for p in positions:
                idx ^= unit[p]
                mask |= 1 << p
            # distance 2t+1 guarantees distinct syndromes up to weight t
            assert leaders[idx] == -1
            leaders[idx] = mask
    leaders.flags.writeable = False
    return leaders


# -------------------------------------------------------- Monte-Carlo kernel
#
# By linearity the enrolled response r drops out of a session's outcome.
# The device publishes syn(r ^ e); the prover's syndrome delta is
# syn(r) ^ syn(r ^ e) = syn(e), so bch.correct either fails or corrects r by
# some e' with syn(e') = syn(e), and the prover derives (r ^ e') >> (n-k)
# while the device keeps (r ^ e) >> (n-k). e ^ e' is then a codeword, and a
# nonzero codeword of a systematic code has nonzero information bits, so the
# keys agree iff e' == e. A bounded-distance decoder returns e' == e exactly
# when wt(e) <= t: the distance is at least 2t + 1, so e is then the only
# word of weight <= t in its coset, and otherwise the word it returns (if
# any) has weight <= t < wt(e). A session therefore fails exactly when some
# block has more than t errors, whatever r is; the kernel draws only the
# error masks e and counts their bits.

def error_masks(rng: np.random.Generator, shape: tuple[int, ...], n: int,
                ber: float) -> np.ndarray:
    """Int64 n-bit masks whose bits are iid Bernoulli(ber), one per element of shape.

    The error positions over all prod(shape) * n bits are drawn sparsely, as
    geometric gaps between consecutive errors, which is the same
    distribution as one Bernoulli draw per bit.
    """
    masks = np.zeros(math.prod(shape), dtype=np.int64)
    total = masks.size * n
    expected = total * ber
    start = 0
    while ber > 0 and start < total:
        chunk = int(expected + 6 * math.sqrt(expected)) + 64
        # a gap past the end ends the draw; clipping keeps the sums from overflowing
        gaps = np.minimum(rng.geometric(ber, size=chunk), total + 1)
        pos = start - 1 + np.cumsum(gaps)
        start = int(pos[-1]) + 1
        row, bit = np.divmod(pos[pos < total], n)
        np.add.at(masks, row, np.left_shift(1, bit))  # positions are distinct
    return masks.reshape(shape)


def run_sessions(e: np.ndarray, cfg: FeConfig) -> np.ndarray:
    """Vectorized fe_gen/fe_rec outcome for pre-drawn device errors.

    e: int64 array of shape (sessions, blocks), the n-bit error mask of each
    block (the device reads r ^ e for an enrolled r). Returns a bool array
    marking sessions in which some block has more than t errors: exactly
    those whose recovery failed or produced a key different from the
    device's (see the comment at the head of this section).
    """
    return (np.bitwise_count(e) > cfg.code.t).any(axis=1)


@dataclass(frozen=True)
class McResult:
    sessions: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.sessions


# Sessions the Monte-Carlo draws and decodes per numpy batch
MC_BATCH_SESSIONS = 100_000


def mc_key_failure(ber: float, cfg: FeConfig, sessions: int, seed: int) -> McResult:
    """Empirical key-failure rate over simulated fe_gen/fe_rec sessions,
    drawn MC_BATCH_SESSIONS at a time.

    Raises ValueError for a ber outside [0, 1] (NaN included) and for fewer
    than one session.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be in [0, 1]")
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    rng = np.random.default_rng(seed)
    failures = 0
    remaining = sessions
    while remaining > 0:
        b = min(MC_BATCH_SESSIONS, remaining)
        e = error_masks(rng, (b, cfg.blocks), cfg.code.n, ber)
        failures += int(run_sessions(e, cfg).sum())
        remaining -= b
    return McResult(sessions=sessions, failures=failures)
