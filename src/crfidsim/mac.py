"""AES-128 CMAC and the single-block payload cipher.

Both come from `cryptography`: CMAC (NIST SP 800-38B) from its cmac
module, and the payload cipher is one raw AES block (ECB on 16 bytes).
"""

from __future__ import annotations

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.cmac import CMAC

BLOCK = 16


def _check_key(key: bytes) -> None:
    if len(key) != BLOCK:
        raise ValueError("key must be 128 bits")


def cmac(key: bytes, message: bytes) -> bytes:
    """The 16-byte CMAC-AES128 tag of a message of any length, including empty."""
    _check_key(key)
    c = CMAC(algorithms.AES(key))
    c.update(message)
    return c.finalize()


def mac_firmware(firmware: bytes, nonce: bytes, key: bytes) -> bytes:
    """Tag over firmware with the 16-byte nonce appended after the image bytes."""
    if len(nonce) != BLOCK:
        raise ValueError("nonce must be 128 bits")
    return cmac(key, firmware + nonce)


def sc_encrypt(payload: bytes, key: bytes) -> bytes:
    """Encrypt exactly one 128-bit block under the session key."""
    _check_key(key)
    if len(payload) != BLOCK:
        raise ValueError("payload must be one 128-bit block")
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(payload) + enc.finalize()


def sc_decrypt(payload: bytes, key: bytes) -> bytes:
    _check_key(key)
    if len(payload) != BLOCK:
        raise ValueError("payload must be one 128-bit block")
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(payload) + dec.finalize()
