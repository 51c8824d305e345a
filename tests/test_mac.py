import secrets

import pytest
from cryptography.hazmat.primitives import cmac as libcmac
from cryptography.hazmat.primitives.ciphers import algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

from crfidsim import mac

NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

# CMAC-AES128 known answers for message lengths 0, 16, 40 and 64 bytes.
KNOWN_ANSWERS = [
    (0, "bb1d6929e95937287fa37d129b756746"),
    (16, "070a16b46b4d4144f79bdd9dd04a287c"),
    (40, "dfa66747de9ae63030ca32611497c827"),
    (64, "51f0bebf7e3b9d92fc49741779363cfe"),
]

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class TestCmacKnownAnswers:
    @pytest.mark.parametrize("length,expected", KNOWN_ANSWERS)
    def test_reference_vectors(self, length, expected):
        assert mac.cmac(NIST_KEY, NIST_MSG[:length]).hex() == expected

    def test_deterministic(self):
        a = mac.cmac(NIST_KEY, b"abc")
        b = mac.cmac(NIST_KEY, b"abc")
        assert a == b

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            mac.cmac(b"short", b"")


class TestCmacProperties:
    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_matches_library_route(self, message):
        ours = mac.cmac(NIST_KEY, message)
        ref = libcmac.CMAC(algorithms.AES(NIST_KEY))
        ref.update(message)
        assert ours == ref.finalize()

    def test_single_bit_avalanche(self):
        rng_msgs = [secrets.token_bytes(33) for _ in range(20)]
        for msg in rng_msgs:
            base = mac.cmac(NIST_KEY, msg)
            flipped = bytearray(msg)
            pos = secrets.randbelow(len(msg) * 8)
            flipped[pos // 8] ^= 1 << (pos % 8)
            assert mac.cmac(NIST_KEY, bytes(flipped)) != base


class TestMacFirmware:
    def test_concatenation_order_pinned(self):
        fw = b"image-bytes" * 7
        nonce = secrets.token_bytes(16)
        direct = mac.cmac(NIST_KEY, fw + nonce)
        assert mac.mac_firmware(fw, nonce, NIST_KEY) == direct

    def test_nonce_bit_changes_tag(self):
        fw = secrets.token_bytes(240)
        nonce = bytearray(16)
        a = mac.mac_firmware(fw, bytes(nonce), NIST_KEY)
        nonce[15] ^= 1
        assert mac.mac_firmware(fw, bytes(nonce), NIST_KEY) != a

    def test_truncated_firmware_changes_tag(self):
        fw = secrets.token_bytes(240)
        nonce = secrets.token_bytes(16)
        a = mac.mac_firmware(fw, nonce, NIST_KEY)
        assert mac.mac_firmware(fw[:-64], nonce, NIST_KEY) != a

    def test_nonce_range_checked(self):
        with pytest.raises(ValueError):
            mac.mac_firmware(b"", b"\x00" * 15, NIST_KEY)


class TestPayloadCipher:
    def test_fips_block_vector(self):
        assert mac.sc_encrypt(FIPS_PT, FIPS_KEY) == FIPS_CT
        assert mac.sc_decrypt(FIPS_CT, FIPS_KEY) == FIPS_PT

    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, payload):
        key = NIST_KEY
        assert mac.sc_decrypt(mac.sc_encrypt(payload, key), key) == payload

    def test_block_size_enforced(self):
        with pytest.raises(ValueError):
            mac.sc_encrypt(b"\x00" * 15, NIST_KEY)
        with pytest.raises(ValueError):
            mac.sc_decrypt(b"\x00" * 17, NIST_KEY)

    def test_tag_transport_round_trip(self):
        tag = mac.cmac(NIST_KEY, b"firmware payload")
        wire = mac.sc_encrypt(tag, NIST_KEY)
        assert mac.sc_decrypt(wire, NIST_KEY) == tag
