"""BCH codec tests.

Reference values and reference arithmetic in this file are computed
independently of the module under test: plain long-division over int
bitmasks, exhaustive enumeration for the (7,4,1) code, and frozen
generator-polynomial masks. Each tabulated code is checked here with
GF(2^m) arithmetic local to this file: the generator's degree, that it
divides x^n + 1, that alpha^1 .. alpha^2t are its roots, and that the
field polynomial is primitive.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfidsim import bch

# frozen: the lcm of the minimal polynomials of alpha^1..alpha^2t;
# test_generator_divides_xn_minus_1 checks that property
GENERATORS = {
    (7, 4, 1): 0xB,
    (31, 16, 3): 0x8FAF,
    (63, 24, 7): 0xF69AC20921,
}

ALL_CODES = [(7, 4, 1), (31, 16, 3), (63, 24, 7)]


def ref_poly_mod(a: int, mod: int) -> int:
    """Independent GF(2) polynomial remainder (naive long division)."""
    dm = mod.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def ref_alpha_powers(field_poly: int) -> list[int]:
    """x^i mod field_poly for i = 0 .. 2^m - 2, by shift and reduce."""
    m = field_poly.bit_length() - 1
    powers = [1]
    for _ in range((1 << m) - 2):
        powers.append(ref_poly_mod(powers[-1] << 1, field_poly))
    return powers


def rand_bits(rng: random.Random, n: int) -> int:
    """n fair bits drawn in index order, bit i of the result first."""
    return sum(rng.randint(0, 1) << i for i in range(n))


def ref_codewords_741() -> list[int]:
    g = GENERATORS[(7, 4, 1)]
    return [w for w in range(1 << 7) if ref_poly_mod(w, g) == 0]


@pytest.mark.parametrize("params", ALL_CODES)
def test_generator_polynomials_frozen(params):
    code = bch.make_code(*params)
    assert code.generator_poly == GENERATORS[params]


@pytest.mark.parametrize("params", ALL_CODES)
def test_generator_divides_xn_minus_1(params):
    n, k, t = params
    code = bch.make_code(n, k, t)
    assert code.generator_poly.bit_length() - 1 == n - k
    assert ref_poly_mod((1 << n) | 1, code.generator_poly) == 0
    # the field polynomial is primitive: x generates all 2^m - 1 nonzero
    # elements of GF(2^m), and n = 2^m - 1
    powers = ref_alpha_powers(code.field_poly)
    assert len(powers) == n
    assert set(powers) == set(range(1, n + 1))
    # g(alpha^j) = 0 for j = 1 .. 2t, with alpha = x mod the field polynomial
    g_terms = [i for i in range(n - k + 1) if (code.generator_poly >> i) & 1]
    for j in range(1, 2 * t + 1):
        value = 0
        for i in g_terms:
            value ^= powers[i * j % n]
        assert value == 0, j


def test_code_741_shape():
    code = bch.make_code(7, 4, 1)
    assert code.generator_poly == 0b1011  # x^3 + x + 1
    assert code.n - code.k == 3


def test_code_31_16_3_shape():
    code = bch.make_code(31, 16, 3)
    assert code.generator_poly.bit_length() - 1 == 15


def test_code_63_24_7_shape():
    code = bch.make_code(63, 24, 7)
    assert code.n - code.k == 39


def test_unsupported_parameters_rejected():
    with pytest.raises(bch.UnsupportedCodeError):
        bch.make_code(15, 7, 2)
    with pytest.raises(bch.UnsupportedCodeError):
        bch.make_code(31, 6, 3)


@pytest.mark.parametrize("params", ALL_CODES)
def test_zero_has_no_inverse(params):
    gf = bch.GaloisField(bch.make_code(*params).field_poly)
    with pytest.raises(ZeroDivisionError):
        gf.inverse(0)


def test_syndrome_zero_vector():
    code = bch.make_code(31, 16, 3)
    s = bch.syndrome(0, code)
    assert s == 0


def test_syndrome_length_mismatch():
    code = bch.make_code(7, 4, 1)
    with pytest.raises(ValueError):
        bch.syndrome(1 << 7, code)


def test_syndrome_zero_iff_codeword_741():
    code = bch.make_code(7, 4, 1)
    codewords = set(ref_codewords_741())
    assert len(codewords) == 16
    for w in range(1 << 7):
        s = bch.syndrome(w, code)
        assert (s == 0) == (w in codewords)


def test_syndrome_serialization_is_coefficient_ascending():
    # x^i for i < n-k reduces to itself, so its syndrome is the unit vector
    # at index i; this pins the bit order of the serialized remainder.
    code = bch.make_code(31, 16, 3)
    for i in range(code.n - code.k):
        s = bch.syndrome(1 << i, code)
        assert s == 1 << i


def test_single_bit_syndromes_distinct_741():
    code = bch.make_code(7, 4, 1)
    seen = set()
    for i in range(7):
        seen.add(bch.syndrome(1 << i, code))
    assert len(seen) == 7
    assert 0 not in seen


@pytest.mark.parametrize("params", ALL_CODES)
def test_parity_map_full_rank(params):
    # Gaussian elimination over the n single-bit syndromes.
    n, k, t = params
    code = bch.make_code(n, k, t)
    rows = []
    for i in range(n):
        rows.append(bch.syndrome(1 << i, code))
    rank = 0
    for bit in range(n - k):
        pivot = next((r for r in rows if (r >> bit) & 1 and r < (1 << (bit + 1))), None)
        if pivot is None:
            pivot = next((r for r in rows if (r >> bit) & 1), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if r != pivot and (r >> bit) & 1 else r for r in rows]
    assert rank == n - k


@settings(max_examples=60, deadline=None)
@given(st.integers(0, (1 << 31) - 1), st.integers(0, (1 << 31) - 1))
def test_syndrome_linearity_31(a, b):
    code = bch.make_code(31, 16, 3)
    sa = bch.syndrome(a, code)
    sb = bch.syndrome(b, code)
    sab = bch.syndrome(a ^ b, code)
    assert sab == sa ^ sb


@settings(max_examples=40, deadline=None)
@given(st.integers(0, (1 << 63) - 1), st.integers(0, (1 << 63) - 1))
def test_syndrome_linearity_63(a, b):
    code = bch.make_code(63, 24, 7)
    sa = bch.syndrome(a, code)
    sb = bch.syndrome(b, code)
    sab = bch.syndrome(a ^ b, code)
    assert sab == sa ^ sb


def test_encode_is_systematic():
    code = bch.make_code(31, 16, 3)
    rng = random.Random(7)
    for _ in range(50):
        msg = rand_bits(rng, 16)
        cw = bch.encode(msg, code)
        assert cw >> (code.n - code.k) == msg
        assert bch.syndrome(cw, code) == 0


def test_correct_noiseless_identity():
    code = bch.make_code(7, 4, 1)
    for w in ref_codewords_741():
        assert bch.correct(w, 0, code) == w


def test_correct_exhaustive_single_errors_741():
    code = bch.make_code(7, 4, 1)
    for w in ref_codewords_741():
        for pos in range(7):
            assert bch.correct(w ^ (1 << pos), 0, code) == w


def test_coset_sizes_exhaustive_741():
    # every syndrome value has exactly 2^4 preimages
    code = bch.make_code(7, 4, 1)
    buckets: dict[int, int] = {}
    for w in range(1 << 7):
        s = bch.syndrome(w, code)
        buckets[s] = buckets.get(s, 0) + 1
    assert len(buckets) == 8
    assert set(buckets.values()) == {16}


@pytest.mark.parametrize("params,trials", [((31, 16, 3), 1500), ((63, 24, 7), 800)])
def test_correct_random_errors_within_t(params, trials):
    n, k, t = params
    code = bch.make_code(n, k, t)
    rng = random.Random(1234)
    for _ in range(trials):
        msg = rand_bits(rng, k)
        cw = bch.encode(msg, code)
        nerr = rng.randint(0, t)
        errpos = rng.sample(range(n), nerr)
        noisy = cw
        for p in errpos:
            noisy ^= 1 << p
        assert bch.correct(noisy, 0, code) == cw


def test_correct_toward_nonzero_target():
    # the fuzzy-extractor usage: recover r from a noisy copy given syndrome(r)
    code = bch.make_code(31, 16, 3)
    rng = random.Random(99)
    for _ in range(400):
        r = rand_bits(rng, 31)
        target = bch.syndrome(r, code)
        noisy = r
        for p in rng.sample(range(31), rng.randint(0, 3)):
            noisy ^= 1 << p
        assert bch.correct(noisy, target, code) == r


def test_beyond_t_never_silently_correct():
    # t+1 flips: either DecodeFailure, or a word that satisfies the contract
    # (target syndrome, HD <= t) and therefore cannot be the original.
    code = bch.make_code(31, 16, 3)
    rng = random.Random(5)
    returned = failed = 0
    for _ in range(300):
        msg = rand_bits(rng, 16)
        cw = bch.encode(msg, code)
        noisy = cw
        for p in rng.sample(range(31), 4):
            noisy ^= 1 << p
        try:
            w = bch.correct(noisy, 0, code)
        except bch.DecodeFailure:
            failed += 1
            continue
        returned += 1
        assert bch.syndrome(w, code) == 0
        assert (noisy ^ w).bit_count() <= 3
        assert w != cw
    assert returned + failed == 300
    assert failed > 0  # some weight-4 cosets have no weight<=3 leader


def test_correct_postcondition_rechecked():
    code = bch.make_code(63, 24, 7)
    rng = random.Random(21)
    for _ in range(150):
        r = rand_bits(rng, 63)
        target = bch.syndrome(r, code)
        noisy = r
        for p in rng.sample(range(63), rng.randint(0, 7)):
            noisy ^= 1 << p
        w = bch.correct(noisy, target, code)
        assert bch.syndrome(w, code) == target
        assert (noisy ^ w).bit_count() <= 7
        assert w == r
