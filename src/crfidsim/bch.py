"""Binary BCH(n,k,t) codecs over GF(2^m).

Provides syndrome computation and bounded-distance correction toward an
arbitrary target syndrome, which is the primitive the key-derivation layer
needs: given a noisy word and the syndrome of the original, recover the
original as long as they differ in at most t positions.

Bit order, shared by every layer from the CRP block to the wire:
* words, messages, syndromes and polynomials are Python ints, and bit i of
  the int is both the coefficient of x^i and response bit i; reading a
  block's LSB-first SRAM bytes with int.from_bytes(..., "little") gives
  exactly this order;
* the information set is the message half of the systematic construction
  c(x) = x^(n-k) m(x) + (x^(n-k) m(x) mod g(x)), i.e. positions n-k .. n-1,
  so a word's message is word >> (n - k);
* on the wire (keys, nonces, helper data, tags) bit i goes to the MSB-first
  bit i of the byte string: byte i // 8, mask 0x80 >> (i % 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

# the three supported codes: (n, k, t) -> (primitive field polynomial of
# GF(2^m), generator polynomial); g(x) is the lcm of the minimal polynomials
# of alpha^1 .. alpha^2t, which tests/test_bch.py checks independently
SUPPORTED_CODES = {
    (7, 4, 1): (0b1011, 0xB),                 # x^3 + x + 1
    (31, 16, 3): (0b100101, 0x8FAF),          # x^5 + x^2 + 1
    (63, 24, 7): (0b1000011, 0xF69AC20921),   # x^6 + x + 1
}


class UnsupportedCodeError(ValueError):
    """Raised for (n, k, t) triples outside the supported set."""


class DecodeFailure(Exception):
    """No word within distance t of the input has the target syndrome."""


@dataclass(frozen=True)
class BchParams:
    n: int
    k: int
    t: int
    field_poly: int
    generator_poly: int


class GaloisField:
    """GF(2^m) arithmetic via exp/log tables; m is the field polynomial's degree."""

    def __init__(self, field_poly: int):
        self.size = 1 << (field_poly.bit_length() - 1)
        self.order = self.size - 1
        exp = [0] * (2 * self.order)
        log = [0] * self.size
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.size:
                x ^= field_poly
        for i in range(self.order, 2 * self.order):
            exp[i] = exp[i - self.order]
        self.exp = exp
        self.log = log

    def multiply(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self.exp[self.order - self.log[a]]

    def alpha_power(self, i: int) -> int:
        return self.exp[i % self.order]

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate a polynomial (coeffs[i] for x^i) at a field element."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.multiply(acc, x) ^ c
        return acc


@lru_cache(maxsize=None)
def _field(field_poly: int) -> GaloisField:
    return GaloisField(field_poly)


def _poly_mod_gf2(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def make_code(n: int, k: int, t: int) -> BchParams:
    """Parameters of one of the supported codes."""
    try:
        field_poly, generator_poly = SUPPORTED_CODES[(n, k, t)]
    except KeyError:
        raise UnsupportedCodeError(f"unsupported BCH parameters ({n},{k},{t})")
    return BchParams(n=n, k=k, t=t, field_poly=field_poly,
                     generator_poly=generator_poly)


def check_width(value: int, bits: int, what: str) -> None:
    """Reject a bit vector that is negative or has a bit at position >= bits."""
    if value < 0 or value >> bits:
        raise ValueError(f"{what} wider than {bits} bits")


def syndrome(word: int, code: BchParams) -> int:
    """Remainder of the word polynomial mod g(x), an (n-k)-bit int."""
    check_width(word, code.n, "word")
    return _poly_mod_gf2(word, code.generator_poly)


def encode(message: int, code: BchParams) -> int:
    """Systematic encoding; message bits occupy the information positions."""
    check_width(message, code.k, "message")
    shifted = message << (code.n - code.k)
    return shifted | _poly_mod_gf2(shifted, code.generator_poly)


def _power_sums(y: int, code: BchParams) -> list[int]:
    """S_j = y(alpha^j) for j = 1 .. 2t."""
    gf = _field(code.field_poly)
    positions = [i for i in range(code.n) if (y >> i) & 1]
    sums = []
    for j in range(1, 2 * code.t + 1):
        acc = 0
        for i in positions:
            acc ^= gf.exp[(i * j) % gf.order]
        sums.append(acc)
    return sums


def _berlekamp_massey(syndromes: list[int], gf: GaloisField) -> list[int]:
    """Error locator polynomial (coeffs[i] for x^i) from power sums."""
    c = [1]
    b = [1]
    lam = 0
    shift = 1
    prev_disc = 1
    for idx, s in enumerate(syndromes):
        d = s
        for i in range(1, lam + 1):
            if i < len(c):
                d ^= gf.multiply(c[i], syndromes[idx - i])
        if d == 0:
            shift += 1
            continue
        coef = gf.multiply(d, gf.inverse(prev_disc))
        adj = [0] * shift + [gf.multiply(coef, bb) for bb in b]
        if 2 * lam <= idx:
            b = c[:]
            prev_disc = d
            lam = idx + 1 - lam
            shift = 1
        else:
            shift += 1
        if len(adj) > len(c):
            c = c + [0] * (len(adj) - len(c))
        for i, a in enumerate(adj):
            c[i] ^= a
    return c[: lam + 1]


def _chien_search(locator: list[int], code: BchParams) -> list[int]:
    """Positions i where alpha^-i is a root of the locator."""
    gf = _field(code.field_poly)
    return [
        i for i in range(code.n)
        if gf.poly_eval(locator, gf.alpha_power(-i % gf.order)) == 0
    ]


def correct(word: int, target: int, code: BchParams) -> int:
    """Return the unique w with syndrome(w) = target and HD(word, w) <= t.

    Raises DecodeFailure when no such word exists. The difference between the
    input and the result is found by Berlekamp-Massey over the power sums of
    the syndrome delta, followed by an exhaustive (Chien) root search.
    """
    check_width(word, code.n, "word")
    check_width(target, code.n - code.k, "target syndrome")
    delta = _poly_mod_gf2(word, code.generator_poly) ^ target
    if delta == 0:
        return word
    # delta, read as a low-degree word, lies in the same coset as the error
    sums = _power_sums(delta, code)
    gf = _field(code.field_poly)
    locator = _berlekamp_massey(sums, gf)
    degree = len(locator) - 1
    if degree > code.t:
        raise DecodeFailure("error weight exceeds t")
    roots = _chien_search(locator, code)
    if len(roots) != degree:
        raise DecodeFailure("locator does not split over the field")
    err = 0
    for i in roots:
        err |= 1 << i
    # a degree-L <= t locator with L distinct roots is that of a weight-L
    # error whose power sums are S_1 .. S_2t, so word ^ err meets the target
    return word ^ err
