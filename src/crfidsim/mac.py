"""AES-128 CMAC and the single-block payload cipher.

Both come from `cryptography`: CMAC (NIST SP 800-38B) from its cmac
module, and the payload cipher is one raw AES block (ECB on 16 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.cmac import CMAC

BLOCK = 16


@dataclass(frozen=True)
class MacTag:
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != BLOCK:
            raise ValueError("tag must be 128 bits")

    def hex(self) -> str:
        return self.tag.hex()


def _check_key(key: bytes) -> None:
    if len(key) != BLOCK:
        raise ValueError("key must be 128 bits")


def _aes_encrypt_block(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def _aes_decrypt_block(key: bytes, block: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(block) + dec.finalize()


def cmac(key: bytes, message: bytes) -> MacTag:
    """CMAC-AES128 over a message of any length, including empty."""
    _check_key(key)
    c = CMAC(algorithms.AES(key))
    c.update(message)
    return MacTag(c.finalize())


def mac_firmware(firmware: bytes, nonce: bytes, key: bytes) -> MacTag:
    """Tag over firmware with the 16-byte nonce appended after the image bytes."""
    if len(nonce) != BLOCK:
        raise ValueError("nonce must be 128 bits")
    return cmac(key, firmware + nonce)


def sc_encrypt(payload: bytes, key: bytes) -> bytes:
    """Encrypt exactly one 128-bit block under the session key."""
    _check_key(key)
    if len(payload) != BLOCK:
        raise ValueError("payload must be one 128-bit block")
    return _aes_encrypt_block(key, payload)


def sc_decrypt(payload: bytes, key: bytes) -> bytes:
    _check_key(key)
    if len(payload) != BLOCK:
        raise ValueError("payload must be one 128-bit block")
    return _aes_decrypt_block(key, payload)
