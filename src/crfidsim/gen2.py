"""EPC Gen2 access-command framing over a bit-exact transport.

Everything a reader sends is one BlockWrite-coded frame:

    cmd 0xC7 | membank(2) | wordptr(EBV-8) | wordcount(8) |
    data(16*wordcount) | rn(16) | crc(16)

Security commands ride on reserved membank-0 word pointers: 0x03 is
key-setup (Authenticate), 0x7D wraps an encrypted write (SecureComm),
0x7E is the privilege drop (TagPrivilege). Anything else decodes as a
plain BlockWrite. The CRC is the Gen2 air-interface CRC-16 (polynomial
0x1021, preset 0xFFFF, transmitted complemented); a receiver recomputes
the register over frame-plus-crc and expects the constant residue.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass

from .layout import DEFAULT_LAYOUT

CMD_BLOCKWRITE = 0xC7
WORDPTR_AUTHENTICATE = 0x03
WORDPTR_SECURECOMM = 0x7D
WORDPTR_TAGPRIVILEGE = 0x7E
TAGPRIVILEGE_WORD = 0x0001
MAX_WORDS = 255
# a wordptr has at most this many 7-bit EBV groups, so it is below 2**35
EBV_MAX_GROUPS = 5
DOWNLOAD_WORDS = DEFAULT_LAYOUT.download_bytes // 2

CRC_POLY = 0x1021
CRC_PRESET = 0xFFFF
CRC_RESIDUE = 0x1D0F


class BadCrcError(ValueError):
    pass


class UnknownDiscriminatorError(ValueError):
    pass


class WordPtrRangeError(ValueError):
    pass


class FrameFormatError(ValueError):
    """Structurally malformed frame (lengths disagree despite a good CRC)."""


@dataclass(frozen=True)
class BitString:
    """Immutable bit sequence; bit 0 is the first bit on the air (MSB side)."""

    value: int = 0
    length: int = 0

    def __post_init__(self) -> None:
        if self.length < 0 or self.value < 0 or self.value >> self.length:
            raise ValueError("value does not fit in length bits")

    def __len__(self) -> int:
        return self.length

    def concat(self, other: "BitString") -> "BitString":
        return BitString(self.value << other.length | other.value,
                         self.length + other.length)

    def field(self, start: int, nbits: int) -> int:
        if start < 0 or nbits < 0 or start + nbits > self.length:
            raise ValueError("field out of range")
        return (self.value >> (self.length - start - nbits)) & ((1 << nbits) - 1)

    def bit(self, i: int) -> int:
        return self.field(i, 1)

    def flip(self, i: int) -> "BitString":
        if not 0 <= i < self.length:
            raise ValueError("bit index out of range")
        return BitString(self.value ^ (1 << (self.length - 1 - i)), self.length)

    def to_bytes(self) -> bytes:
        """MSB-first packing; the last byte is zero-padded on the right."""
        pad = -self.length % 8
        return ((self.value << pad)).to_bytes((self.length + pad) // 8, "big")


def _crc_register(bits: BitString) -> int:
    # whole bytes through binascii's MSB-first CRC-CCITT (poly 0x1021),
    # then the trailing bits one at a time
    nbytes, rem = divmod(bits.length, 8)
    reg = binascii.crc_hqx((bits.value >> rem).to_bytes(nbytes, "big"), CRC_PRESET)
    for i in range(rem - 1, -1, -1):
        top = ((reg >> 15) ^ (bits.value >> i)) & 1
        reg = (reg << 1) & 0xFFFF
        if top:
            reg ^= CRC_POLY
    return reg


def crc16(bits: BitString) -> int:
    """Transmitted CRC value: the complemented register."""
    if bits.length == 0:
        raise ValueError("empty bit string")
    return _crc_register(bits) ^ 0xFFFF


def residue_ok(frame_bits: BitString) -> bool:
    return _crc_register(frame_bits) == CRC_RESIDUE


def ebv_encode(value: int) -> BitString:
    """Extension-bit vector: 7 value bits per byte, big-endian groups."""
    if value < 0:
        raise ValueError("EBV value must be non-negative")
    out = value & 0x7F
    length = 8
    value >>= 7
    while value:
        out |= (0x80 | value & 0x7F) << length
        length += 8
        value >>= 7
    return BitString(out, length)


def _ebv_decode(bits: BitString, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(EBV_MAX_GROUPS):
        if pos + 8 > bits.length:
            raise FrameFormatError("truncated EBV field")
        byte = bits.field(pos, 8)
        pos += 8
        value = value << 7 | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise FrameFormatError("EBV field too long")


# ------------------------------------------------------------ command views

@dataclass(frozen=True)
class BlockWrite:
    membank: int
    wordptr: int
    words: tuple[int, ...]


@dataclass(frozen=True)
class Authenticate:
    csi: int


@dataclass(frozen=True)
class SecureComm:
    inner_wordptr: int
    ciphertext: bytes


@dataclass(frozen=True)
class TagPrivilege:
    pass


CommandView = BlockWrite | Authenticate | SecureComm | TagPrivilege

_RESERVED_BANK0_PTRS = frozenset(
    {WORDPTR_AUTHENTICATE, WORDPTR_SECURECOMM, WORDPTR_TAGPRIVILEGE}
)


@dataclass(frozen=True)
class Gen2Frame:
    bits: BitString

    def to_hex(self) -> str:
        return self.bits.to_bytes().hex(" ")


@dataclass(frozen=True)
class FrameFields:
    membank: int
    wordptr: int
    words: tuple[int, ...]
    rn: int
    crc: int


def _raw_fields(cmd: CommandView) -> tuple[int, int, tuple[int, ...]]:
    if isinstance(cmd, Authenticate):
        if not 0 <= cmd.csi <= 0xFF:
            raise ValueError("CSI must fit one byte")
        return 0, WORDPTR_AUTHENTICATE, (cmd.csi,)
    if isinstance(cmd, SecureComm):
        if not 0 <= cmd.inner_wordptr < DOWNLOAD_WORDS:
            raise WordPtrRangeError("inner wordptr outside the download area")
        if len(cmd.ciphertext) != 16:
            raise ValueError("ciphertext must be one 128-bit block")
        ct_words = struct.unpack(">8H", cmd.ciphertext)
        return 0, WORDPTR_SECURECOMM, (cmd.inner_wordptr, *ct_words)
    if isinstance(cmd, TagPrivilege):
        return 0, WORDPTR_TAGPRIVILEGE, (TAGPRIVILEGE_WORD,)
    if isinstance(cmd, BlockWrite):
        if not 0 <= cmd.membank <= 3:
            raise ValueError("membank must be 0..3")
        if cmd.membank == 0 and cmd.wordptr in _RESERVED_BANK0_PTRS:
            raise WordPtrRangeError("reserved membank-0 wordptr")
        if not 0 <= cmd.wordptr < 1 << 7 * EBV_MAX_GROUPS:
            raise WordPtrRangeError(f"wordptr must be 0..2**{7 * EBV_MAX_GROUPS}-1")
        if not 1 <= len(cmd.words) <= MAX_WORDS:
            raise ValueError(f"word count must be 1..{MAX_WORDS}")
        if any(not 0 <= w <= 0xFFFF for w in cmd.words):
            raise ValueError("data words must be 16-bit")
        return cmd.membank, cmd.wordptr, tuple(cmd.words)
    raise TypeError(f"not a command view: {cmd!r}")


def encode(cmd: CommandView, rn: int) -> Gen2Frame:
    if not 0 <= rn <= 0xFFFF:
        raise ValueError("rn must be 16-bit")
    membank, wordptr, words = _raw_fields(cmd)
    ptr = ebv_encode(wordptr)
    n = len(words)
    data = int.from_bytes(struct.pack(f">{n}H", *words), "big")
    value = (CMD_BLOCKWRITE << 2 | membank) << ptr.length | ptr.value
    value = ((value << 8 | n) << 16 * n | data) << 16 | rn
    body = BitString(value, 8 + 2 + ptr.length + 8 + 16 * n + 16)
    return Gen2Frame(bits=BitString(value << 16 | crc16(body), body.length + 16))


def parse_fields(frame: Gen2Frame) -> FrameFields:
    """Field-level parse with CRC verification, before discrimination."""
    bits = frame.bits
    if bits.length < 8 + 2 + 8 + 8 + 16 + 16:
        raise FrameFormatError("frame too short")
    if not residue_ok(bits):
        raise BadCrcError("residue check failed")
    if bits.field(0, 8) != CMD_BLOCKWRITE:
        raise UnknownDiscriminatorError("unknown command code")
    membank = bits.field(8, 2)
    wordptr, pos = _ebv_decode(bits, 10)
    if pos + 8 > bits.length:
        raise FrameFormatError("frame too short")
    wordcount = bits.field(pos, 8)
    pos += 8
    if pos + 16 * wordcount + 32 != bits.length:
        raise FrameFormatError("wordcount disagrees with frame length")
    data = bits.field(pos, 16 * wordcount).to_bytes(2 * wordcount, "big")
    words = struct.unpack(f">{wordcount}H", data)
    pos += 16 * wordcount
    return FrameFields(
        membank=membank,
        wordptr=wordptr,
        words=words,
        rn=bits.field(pos, 16),
        crc=bits.field(pos + 16, 16),
    )


def decode(frame: Gen2Frame) -> CommandView:
    f = parse_fields(frame)
    if f.membank == 0 and f.wordptr == WORDPTR_AUTHENTICATE:
        if len(f.words) != 1 or f.words[0] > 0xFF:
            raise UnknownDiscriminatorError("malformed key-setup command")
        return Authenticate(csi=f.words[0])
    if f.membank == 0 and f.wordptr == WORDPTR_SECURECOMM:
        if len(f.words) != 9:
            raise UnknownDiscriminatorError("malformed encrypted-write wrapper")
        inner = f.words[0]
        if inner >= DOWNLOAD_WORDS:
            raise WordPtrRangeError("inner wordptr outside the download area")
        return SecureComm(inner_wordptr=inner, ciphertext=struct.pack(">8H", *f.words[1:]))
    if f.membank == 0 and f.wordptr == WORDPTR_TAGPRIVILEGE:
        if f.words != (TAGPRIVILEGE_WORD,):
            raise UnknownDiscriminatorError("malformed privilege command")
        return TagPrivilege()
    if len(f.words) < 1:
        raise FrameFormatError("empty write")
    return BlockWrite(membank=f.membank, wordptr=f.wordptr, words=f.words)

