import secrets

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crfidsim import gen2


def ref_crc_register(bits: list[int]) -> int:
    """Independent bit-serial shift register (no lookup table)."""
    reg = 0xFFFF
    for b in bits:
        top = ((reg >> 15) & 1) ^ b
        reg = (reg << 1) & 0xFFFF
        if top:
            reg ^= 0x1021
    return reg


def bit_list(bs: gen2.BitString) -> list[int]:
    return [bs.field(i, 1) for i in range(len(bs))]


def concat(*parts: gen2.BitString) -> gen2.BitString:
    """The parts' bits one after another, the first part first on the air."""
    out = gen2.BitString()
    for part in parts:
        out = gen2.BitString(out.value << part.length | part.value,
                             out.length + part.length)
    return out


def raw_frame(membank, wordptr, words, rn=0x1111, wordcount=None):
    body = concat(
        gen2.BitString(gen2.CMD_BLOCKWRITE, 8),
        gen2.BitString(membank, 2),
        gen2.ebv_encode(wordptr),
        gen2.BitString(wordcount if wordcount is not None else len(words), 8),
        *(gen2.BitString(w, 16) for w in words),
        gen2.BitString(rn, 16),
    )
    return gen2.Gen2Frame(bits=concat(body, gen2.BitString(gen2.crc16(body), 16)))


class TestBitString:
    def test_concat_and_field(self):
        bs = concat(gen2.BitString(0b101, 3), gen2.BitString(0b0011, 4))
        assert bs.value == 0b1010011 and bs.length == 7
        assert bs.field(0, 3) == 0b101
        assert bs.field(3, 4) == 0b0011

    def test_flip_is_involution(self):
        bs = gen2.BitString(0b1100, 4)
        assert bs.flip(1).flip(1) == bs
        assert bs.flip(0).value == 0b0100

    def test_to_bytes_pads_right(self):
        assert gen2.BitString(0b11, 2).to_bytes() == b"\xc0"
        assert gen2.BitString(0xAB, 8).to_bytes() == b"\xab"

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            gen2.BitString(4, 2)

    def test_field_bounds_checked(self):
        with pytest.raises(ValueError):
            gen2.BitString(0, 8).field(4, 8)


class TestCrc:
    def test_catalog_check_value(self):
        data = b"123456789"
        bs = gen2.BitString(int.from_bytes(data, "big"), 72)
        assert gen2.crc16(bs) == 0xD64E

    @given(st.integers(min_value=1, max_value=130))
    @settings(max_examples=60, deadline=None)
    def test_matches_bit_serial_reference(self, nbits):
        value = secrets.randbits(nbits) & ((1 << nbits) - 1)
        bs = gen2.BitString(value, nbits)
        assert gen2.crc16(bs) == ref_crc_register(bit_list(bs)) ^ 0xFFFF

    def test_residue_constant_over_random_frames(self):
        for i in range(50):
            words = tuple(secrets.randbelow(1 << 16) for _ in range(1 + i % 5))
            f = raw_frame(membank=1 + i % 3, wordptr=i * 7, words=words)
            assert ref_crc_register(bit_list(f.bits)) == 0x1D0F
            assert gen2.residue_ok(f.bits)

    def test_every_single_bit_corruption_detected(self):
        f = raw_frame(membank=3, wordptr=0x123, words=(0xDEAD, 0xBEEF))
        for i in range(len(f.bits)):
            bad = gen2.Gen2Frame(bits=f.bits.flip(i))
            with pytest.raises(gen2.BadCrcError):
                gen2.decode(bad)


class TestEbv:
    def test_single_byte_values(self):
        assert gen2.ebv_encode(0) == gen2.BitString(0x00, 8)
        assert gen2.ebv_encode(0x7F) == gen2.BitString(0x7F, 8)

    def test_two_byte_value(self):
        assert gen2.ebv_encode(300).to_bytes() == bytes([0x82, 0x2C])

    @given(st.integers(min_value=0, max_value=1 << 28))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, value):
        enc = gen2.ebv_encode(value)
        got, pos = gen2._ebv_decode(enc, 0)
        assert got == value and pos == len(enc)


# ------------------------------------------------ per-word reference encoder

def ref_ebv(value: int) -> gen2.BitString:
    groups = [value & 0x7F]
    value >>= 7
    while value:
        groups.append(value & 0x7F)
        value >>= 7
    out = gen2.BitString()
    for i, g in enumerate(reversed(groups)):
        ext = 1 if i < len(groups) - 1 else 0
        out = concat(out, gen2.BitString(ext << 7 | g, 8))
    return out


def ref_fields(cmd) -> tuple[int, int, tuple[int, ...]]:
    if isinstance(cmd, gen2.Authenticate):
        return 0, 0x03, (cmd.csi,)
    if isinstance(cmd, gen2.SecureComm):
        ct = cmd.ciphertext
        return 0, 0x7D, (cmd.inner_wordptr,) + tuple(
            int.from_bytes(ct[i : i + 2], "big") for i in range(0, 16, 2)
        )
    if isinstance(cmd, gen2.TagPrivilege):
        return 0, 0x7E, (0x0001,)
    return cmd.membank, cmd.wordptr, tuple(cmd.words)


def ref_encode(cmd, rn: int) -> gen2.BitString:
    """Frame bits concatenated one field and one word at a time, with a
    bit-serial CRC."""
    membank, wordptr, words = ref_fields(cmd)
    body = concat(gen2.BitString(gen2.CMD_BLOCKWRITE, 8), gen2.BitString(membank, 2),
                  ref_ebv(wordptr), gen2.BitString(len(words), 8),
                  *(gen2.BitString(w, 16) for w in words), gen2.BitString(rn, 16))
    crc = ref_crc_register(bit_list(body)) ^ 0xFFFF
    return concat(body, gen2.BitString(crc, 16))


wide_block_writes = st.builds(
    gen2.BlockWrite,
    membank=st.integers(0, 3),
    # 1 to 5 EBV groups
    wordptr=st.one_of(st.integers(0, 0x7F), st.integers(0x80, 1 << 28)),
    words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=gen2.MAX_WORDS).map(tuple),
).filter(lambda c: not (c.membank == 0 and c.wordptr in gen2._RESERVED_BANK0_PTRS))

command_views = st.one_of(
    wide_block_writes,
    st.builds(gen2.Authenticate, csi=st.integers(0, 0xFF)),
    st.builds(gen2.SecureComm, inner_wordptr=st.integers(0, gen2.DOWNLOAD_WORDS - 1),
              ciphertext=st.binary(min_size=16, max_size=16)),
    st.just(gen2.TagPrivilege()),
)


class TestEncoderMatchesReference:
    @given(command_views, st.integers(0, 0xFFFF))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_and_fields(self, cmd, rn):
        frame = gen2.encode(cmd, rn)
        want = ref_encode(cmd, rn)
        assert frame.bits == want
        membank, wordptr, words = ref_fields(cmd)
        fields = gen2.parse_fields(frame)
        assert (fields.membank, fields.wordptr, fields.words, fields.rn) == (
            membank, wordptr, words, rn
        )
        assert fields.crc == want.field(len(want) - 16, 16)
        assert frame.to_hex() == " ".join(f"{b:02x}" for b in want.to_bytes())

    @pytest.mark.parametrize("wordptr", [0x7F, 0x80, 0x3FFF, 0x4000, 1 << 21, (1 << 28) + 3])
    def test_ebv_group_boundaries(self, wordptr):
        assert gen2.ebv_encode(wordptr) == ref_ebv(wordptr)
        cmd = gen2.BlockWrite(membank=3, wordptr=wordptr, words=(0xFFFF,) * 255)
        assert gen2.encode(cmd, 0xFFFF).bits == ref_encode(cmd, 0xFFFF)


block_writes = st.builds(
    gen2.BlockWrite,
    membank=st.integers(0, 3),
    wordptr=st.integers(0, 1 << 14),
    words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=8).map(tuple),
)


class TestRoundTrips:
    @given(block_writes, st.integers(0, 0xFFFF))
    @settings(max_examples=150, deadline=None)
    def test_blockwrite(self, cmd, rn):
        assume(not (cmd.membank == 0 and cmd.wordptr in gen2._RESERVED_BANK0_PTRS))
        frame = gen2.encode(cmd, rn)
        assert gen2.decode(frame) == cmd
        assert gen2.parse_fields(frame).rn == rn

    @given(st.integers(0, 0xFF))
    @settings(max_examples=30, deadline=None)
    def test_authenticate(self, csi):
        cmd = gen2.Authenticate(csi=csi)
        assert gen2.decode(gen2.encode(cmd, 0x2222)) == cmd

    @given(st.integers(0, gen2.DOWNLOAD_WORDS - 1), st.binary(min_size=16, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_securecomm(self, inner, ct):
        cmd = gen2.SecureComm(inner_wordptr=inner, ciphertext=ct)
        assert gen2.decode(gen2.encode(cmd, 0x2222)) == cmd

    def test_tagprivilege(self):
        frame = gen2.encode(gen2.TagPrivilege(), 0x9999)
        assert gen2.decode(frame) == gen2.TagPrivilege()

    @given(block_writes, st.integers(0, 0xFFFF))
    @settings(max_examples=60, deadline=None)
    def test_reencode_reproduces_frame(self, cmd, rn):
        assume(not (cmd.membank == 0 and cmd.wordptr in gen2._RESERVED_BANK0_PTRS))
        frame = gen2.encode(cmd, rn)
        again = gen2.encode(gen2.decode(frame), gen2.parse_fields(frame).rn)
        assert again == frame


class TestDiscriminators:
    def test_authenticate_layout(self):
        f = gen2.encode(gen2.Authenticate(csi=0x01), 0x1234)
        fields = gen2.parse_fields(f)
        assert fields.membank == 0
        assert fields.wordptr == 0x03
        assert fields.words == (0x0001,)

    def test_tagprivilege_layout(self):
        f = gen2.encode(gen2.TagPrivilege(), 0x1234)
        fields = gen2.parse_fields(f)
        assert fields.wordptr == 0x7E
        assert f.bits.field(10, 8) == 0x7E    # single EBV byte on the wire

    def test_securecomm_layout(self):
        ct = bytes(range(16))
        f = gen2.encode(gen2.SecureComm(inner_wordptr=40, ciphertext=ct), 0x1234)
        fields = gen2.parse_fields(f)
        assert fields.wordptr == 0x7D
        assert fields.words[0] == 40
        assert len(fields.words) == 9

    def test_authenticate_high_byte_rejected(self):
        f = raw_frame(membank=0, wordptr=0x03, words=(0x0101,))
        with pytest.raises(gen2.UnknownDiscriminatorError):
            gen2.decode(f)

    def test_tagprivilege_wrong_word_rejected(self):
        f = raw_frame(membank=0, wordptr=0x7E, words=(0x0002,))
        with pytest.raises(gen2.UnknownDiscriminatorError):
            gen2.decode(f)

    def test_securecomm_inner_ptr_range_checked(self):
        words = (gen2.DOWNLOAD_WORDS,) + tuple(range(8))
        f = raw_frame(membank=0, wordptr=0x7D, words=words)
        with pytest.raises(gen2.WordPtrRangeError):
            gen2.decode(f)

    def test_plain_write_cannot_use_reserved_ptr(self):
        with pytest.raises(gen2.WordPtrRangeError):
            gen2.encode(gen2.BlockWrite(membank=0, wordptr=0x7D, words=(1,)), 0)

    def test_widest_wordptr_round_trips(self):
        top = (1 << 7 * gen2.EBV_MAX_GROUPS) - 1
        assert top == 2**35 - 1
        cmd = gen2.BlockWrite(membank=3, wordptr=top, words=(1,))
        assert gen2.decode(gen2.encode(cmd, 0)) == cmd

    @pytest.mark.parametrize("wordptr", [2**35, 2**42, -1])
    def test_wordptr_past_the_ebv_limit_rejected(self, wordptr):
        # the decoder reads at most EBV_MAX_GROUPS groups, so the encoder
        # must not emit a sixth
        with pytest.raises(gen2.WordPtrRangeError):
            gen2.encode(gen2.BlockWrite(membank=3, wordptr=wordptr, words=(1,)), 0)

    def test_bank0_other_ptrs_are_plain_writes(self):
        cmd = gen2.BlockWrite(membank=0, wordptr=5, words=(7,))
        assert gen2.decode(gen2.encode(cmd, 0)) == cmd


class TestFormatErrors:
    def test_wordcount_mismatch(self):
        f = raw_frame(membank=1, wordptr=0, words=(1, 2, 3), wordcount=2)
        with pytest.raises(gen2.FrameFormatError):
            gen2.decode(f)

    def test_unknown_command_code(self):
        body = concat(gen2.BitString(0xC2, 8), gen2.BitString(0, 2), gen2.ebv_encode(0),
                      gen2.BitString(1, 8), gen2.BitString(0, 16), gen2.BitString(0, 16))
        f = gen2.Gen2Frame(bits=concat(body, gen2.BitString(gen2.crc16(body), 16)))
        with pytest.raises(gen2.UnknownDiscriminatorError):
            gen2.decode(f)

    def test_payload_limit(self):
        with pytest.raises(ValueError):
            gen2.encode(
                gen2.BlockWrite(membank=3, wordptr=0, words=(0,) * 256), 0
            )
        big = gen2.encode(
            gen2.BlockWrite(membank=3, wordptr=0, words=(0,) * 255), 0
        )
        assert len(gen2.decode(big).words) == 255

    def test_rn_range(self):
        with pytest.raises(ValueError):
            gen2.encode(gen2.TagPrivilege(), 1 << 16)


# each guard against a caller's bad input, with the message that names it
CALLER_INPUT_GUARDS = {
    "csi-above-byte": (lambda: gen2.encode(gen2.Authenticate(csi=0x100), 0),
                       ValueError, "CSI must fit one byte"),
    "csi-negative": (lambda: gen2.encode(gen2.Authenticate(csi=-1), 0),
                     ValueError, "CSI must fit one byte"),
    "inner-wordptr-past-area": (
        lambda: gen2.encode(gen2.SecureComm(inner_wordptr=gen2.DOWNLOAD_WORDS,
                                            ciphertext=bytes(16)), 0),
        gen2.WordPtrRangeError, "inner wordptr outside the download area"),
    "ciphertext-short": (
        lambda: gen2.encode(gen2.SecureComm(inner_wordptr=0, ciphertext=bytes(15)), 0),
        ValueError, "ciphertext must be one 128-bit block"),
    "membank-4": (lambda: gen2.encode(gen2.BlockWrite(membank=4, wordptr=0, words=(1,)), 0),
                  ValueError, "membank must be 0..3"),
    "word-above-16-bit": (
        lambda: gen2.encode(gen2.BlockWrite(membank=3, wordptr=0, words=(0x10000,)), 0),
        ValueError, "data words must be 16-bit"),
    "word-negative": (
        lambda: gen2.encode(gen2.BlockWrite(membank=3, wordptr=0, words=(1, -1)), 0),
        ValueError, "data words must be 16-bit"),
    "not-a-view": (lambda: gen2.encode(b"\xc7", 0), TypeError, "not a command view"),
    "frame-57-bits": (lambda: gen2.decode(gen2.Gen2Frame(bits=gen2.BitString(0, 57))),
                      gen2.FrameFormatError, "frame too short"),
    "flip-past-end": (lambda: gen2.BitString(0, 8).flip(8),
                      ValueError, "bit index out of range"),
    "flip-negative": (lambda: gen2.BitString(0, 8).flip(-1),
                      ValueError, "bit index out of range"),
    "crc-of-nothing": (lambda: gen2.crc16(gen2.BitString()), ValueError, "empty bit string"),
    "ebv-negative": (lambda: gen2.ebv_encode(-1),
                     ValueError, "EBV value must be non-negative"),
}


@pytest.mark.parametrize("name", sorted(CALLER_INPUT_GUARDS))
def test_caller_input_guards(name):
    call, error, message = CALLER_INPUT_GUARDS[name]
    with pytest.raises(error, match=message):
        call()


class TestHexDump:
    def test_format(self):
        f = gen2.encode(gen2.Authenticate(csi=1), 0xABCD)
        text = f.to_hex()
        assert all(len(tok) == 2 for tok in text.split())
        assert text.startswith("c7")
