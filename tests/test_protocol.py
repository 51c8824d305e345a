import random
import struct

import pytest

from crfidsim import bch, enroll, fuzzy, gen2, mac, protocol, puf
from test_gen2 import raw_frame


@pytest.fixture(scope="module")
def enrolled():
    dev = puf.synth_device(seed=11)
    record = enroll.enroll_device(dev, device_id=11)
    db = protocol.ProverDb()
    db.add(record)
    return dev, record, db


def fresh_token(enrolled, temperature=25.0, session_seed=1):
    dev, record, _ = enrolled
    return protocol.TokenSim(
        dev, record.crp_map, temperature=temperature, session_seed=session_seed
    )


IMAGE = protocol.demo_images()["boot-shim"]


class TestFirmwareImage:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            protocol.FirmwareImage(b"")

    def test_demo_images_fixed(self):
        imgs = protocol.demo_images()
        assert {n: i.total_bytes for n, i in imgs.items()} == {
            "blinky": 399, "sense": 273, "boot-shim": 223,
        }
        assert protocol.demo_images()["blinky"] == imgs["blinky"]

    @pytest.mark.parametrize("data", [
        *(img.data for img in protocol.demo_images().values()),
        b"\x01", b"\xab\xcd", b"\x00\xff\x10", bytes(range(256)), bytes(range(255)),
    ])
    def test_image_words_big_endian_padded(self, data):
        """Big-endian 16-bit words, an odd length padded with one zero byte."""
        padded = data + b"\x00" * (len(data) % 2)
        words = [int.from_bytes(padded[i : i + 2], "big") for i in range(0, len(padded), 2)]
        assert protocol._image_words(data) == words


class TestProverDb:
    def test_write_once(self, enrolled):
        _, record, _ = enrolled
        db = protocol.ProverDb()
        db.add(record)
        with pytest.raises(protocol.DuplicateEnrollmentError):
            db.add(record)

    def test_unknown_token(self):
        with pytest.raises(protocol.UnknownTokenError):
            protocol.ProverDb().get(404)


class TestUpdateSetup:
    def test_words_round_trip(self):
        s = protocol.UpdateSetup(size=70000, start_word=9, method=1)
        assert protocol.UpdateSetup.from_words(s.to_words()) == s

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            protocol.UpdateSetup(size=1 << 32, start_word=0, method=1).to_words()


class TestTokenBoot:
    def test_flag_set_boots_key_ready(self, enrolled):
        dev, record, _ = enrolled
        nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
        st = protocol.token_boot(dev, nvm, 25.0, boot_seed=1)
        assert st.mode is protocol.TokenMode.KEY_READY
        assert st.auth is not None and len(st.auth.nonce) == 16
        assert 0 <= st.auth.challenge < 256
        assert st.key is not None and len(st.key) == 16
        assert len(st.auth.helper) == 15

    def test_flag_clear_boots_user_code(self, enrolled):
        dev, record, _ = enrolled
        nvm = protocol.TokenNvm(crp_map=record.crp_map)
        st = protocol.token_boot(dev, nvm, 25.0, boot_seed=1)
        assert st.mode is protocol.TokenMode.USER_CODE
        assert st.key is None and st.auth is None
        assert st.volatile_cleared()

    def test_user_code_boot_does_no_key_work(self, enrolled, monkeypatch):
        _, _, db = enrolled

        def forbidden(*args, **kwargs):
            raise AssertionError("key work on a user-code boot")

        class ForbidAfterTag(protocol.Channel):
            """Forbids key work from the tag frame on, so the reboot after
            the commit runs without it."""

            def send(self, frame):
                if isinstance(gen2.decode(frame), gen2.SecureComm):
                    for module, name in ((puf, "trng_next"), (puf, "readout_cells"),
                                         (fuzzy, "fe_gen")):
                        monkeypatch.setattr(module, name, forbidden)
                return super().send(frame)

        token = fresh_token(enrolled, session_seed=4)
        out = protocol.prover_update(db, 11, IMAGE, ForbidAfterTag(token))
        assert out is protocol.UpdateOutcome.COMMITTED
        assert token.boot_count == 3
        assert token.state.mode is protocol.TokenMode.USER_CODE
        assert token.state.volatile_cleared()

        fresh = fresh_token(enrolled, session_seed=5)
        assert fresh.boot_count == 1
        assert fresh.state.mode is protocol.TokenMode.USER_CODE
        fresh.power_cycle()
        assert fresh.boot_count == 2

    @pytest.mark.parametrize("session_seed", [2, 7])
    def test_sim_update_boot_equals_token_boot(self, enrolled, session_seed):
        dev, record, _ = enrolled
        token = fresh_token(enrolled, session_seed=session_seed)
        token.deliver(gen2.encode(gen2.TagPrivilege(), rn=1))
        assert token.boot_count == 2
        nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
        st = protocol.token_boot(dev, nvm, 25.0, boot_seed=session_seed * 100_000 + 2)
        sim = token.state
        assert sim.mode is st.mode is protocol.TokenMode.KEY_READY
        assert sim.key == st.key
        assert sim.auth.nonce == st.auth.nonce
        assert sim.auth.challenge == st.auth.challenge
        assert sim.auth.helper == st.auth.helper

    @pytest.mark.parametrize("temp", [protocol.TEMP_LEGAL_MIN, protocol.TEMP_LEGAL_MAX])
    def test_update_boot_at_legal_bounds_derives_key(self, enrolled, temp):
        dev, record, _ = enrolled
        nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
        st = protocol.token_boot(dev, nvm, temp, boot_seed=1)
        assert st.mode is protocol.TokenMode.KEY_READY
        assert st.key is not None and len(st.key) == 16

    @pytest.mark.parametrize("temp", [50.0, -5.0, 40.1])
    def test_over_temperature_halts_without_key(self, enrolled, temp):
        dev, record, _ = enrolled
        nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
        st = protocol.token_boot(dev, nvm, temp, boot_seed=1)
        assert st.mode is protocol.TokenMode.HALTED
        assert st.volatile_cleared()

    def test_nonces_fresh_across_boots(self, enrolled):
        dev, record, _ = enrolled
        nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
        nonces = set()
        challenges = set()
        for seed in range(20):
            st = protocol.token_boot(dev, nvm, 25.0, boot_seed=seed)
            nonces.add(st.auth.nonce)
            challenges.add(st.auth.challenge)
        assert len(nonces) == 20
        assert len(challenges) > 1

    def test_distinct_challenges_give_distinct_keys(self, enrolled):
        dev, record, _ = enrolled
        nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
        by_block = {}
        for seed in range(30):
            st = protocol.token_boot(dev, nvm, 25.0, boot_seed=seed)
            by_block.setdefault(st.auth.challenge % len(record.crp_map), set()).add(st.key)
        keys = [k for group in by_block.values() for k in group]
        blocks = list(by_block)
        if len(blocks) > 1:
            inter = set.union(*(by_block[b] for b in blocks[:1]))
            rest = set.union(*(by_block[b] for b in blocks[1:]))
            assert inter.isdisjoint(rest)
        assert len(keys) >= len(blocks)


def send(channel, cmd, rn=0x1000):
    return channel.send(gen2.encode(cmd, rn))


def open_update(channel, size, start_word=0, csi=protocol.CSI_CMAC_AES128,
                method=protocol.METHOD_CMAC_AES128):
    assert isinstance(send(channel, gen2.TagPrivilege()), protocol.Ack)
    setup = protocol.UpdateSetup(size=size, start_word=start_word, method=method)
    assert isinstance(
        send(channel, gen2.BlockWrite(
            membank=0, wordptr=protocol.SETUP_WORDPTR, words=setup.to_words())),
        protocol.Ack,
    )
    return send(channel, gen2.Authenticate(csi=csi))


class TestTokenHandle:
    def test_privilege_sets_flag_and_resets(self, enrolled):
        token = fresh_token(enrolled)
        assert token.state.mode is protocol.TokenMode.USER_CODE
        reply = send(protocol.Channel(token), gen2.TagPrivilege())
        assert reply == protocol.Ack("privilege")
        assert token.nvm.firmware_update_flag
        assert token.state.mode is protocol.TokenMode.KEY_READY  # auto reboot

    def test_setup_rejected_outside_key_ready(self, enrolled):
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        setup = protocol.UpdateSetup(size=100, start_word=0, method=1)
        reply = send(ch, gen2.BlockWrite(
            membank=0, wordptr=protocol.SETUP_WORDPTR, words=setup.to_words()))
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_MODE)

    @pytest.mark.parametrize("wordptr,words,code", [
        (protocol.SETUP_WORDPTR + 1, (0, 8, 0, 0x100), protocol.ErrorCode.BAD_WORDPTR),
        (protocol.SETUP_WORDPTR, (0, 8, 0), protocol.ErrorCode.BAD_SETUP),
    ], ids=["wrong-wordptr", "three-words"])
    def test_malformed_setup_rejected(self, enrolled, wordptr, words, code):
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        assert isinstance(send(ch, gen2.TagPrivilege()), protocol.Ack)
        reply = send(ch, gen2.BlockWrite(membank=0, wordptr=wordptr, words=words))
        assert reply == protocol.Nak(code)

    def test_authenticate_without_setup(self, enrolled):
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        assert isinstance(send(ch, gen2.TagPrivilege()), protocol.Ack)
        reply = send(ch, gen2.Authenticate(csi=1))
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_SETUP)

    def test_authenticate_happy_path(self, enrolled):
        token = fresh_token(enrolled)
        stale = b"\xa5" * len(token.nvm.download_area)
        token.nvm.download_area[:] = stale
        ch = protocol.Channel(token)
        reply = open_update(ch, size=64)
        assert isinstance(reply, protocol.AuthReply)
        assert len(reply.nonce) == 16
        assert len(reply.helper) == 15
        assert token.state.mode is protocol.TokenMode.FIRMWARE_UPDATE
        # the setup's range is zeroed, and nothing past it is touched
        assert bytes(token.nvm.download_area[:64]) == bytes(64)
        assert bytes(token.nvm.download_area[64:]) == stale[64:]

    def test_authenticate_in_update_resets(self, enrolled):
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        assert isinstance(open_update(ch, size=64), protocol.AuthReply)
        boots, key = token.boot_count, token.state.key
        reply = send(ch, gen2.Authenticate(csi=protocol.CSI_CMAC_AES128))
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_MODE)
        assert token.boot_count == boots + 1
        assert token.state.key != key

    def test_oversized_setup_rejected(self, enrolled):
        token = fresh_token(enrolled)
        reply = open_update(protocol.Channel(token), size=8193)
        assert reply == protocol.Nak(protocol.ErrorCode.SIZE_TOO_LARGE)
        assert token.boot_count == 3   # every Authenticate NAK resets

    def test_empty_setup_rejected(self, enrolled):
        token = fresh_token(enrolled)
        reply = open_update(protocol.Channel(token), size=0)
        assert reply == protocol.Nak(protocol.ErrorCode.SIZE_TOO_LARGE)

    def test_start_word_past_area_rejected(self, enrolled):
        token = fresh_token(enrolled)
        area_words = len(token.nvm.download_area) // 2
        reply = open_update(protocol.Channel(token), size=1, start_word=area_words)
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_WORDPTR)
        assert token.boot_count == 3

    def test_bad_method_rejected(self, enrolled):
        token = fresh_token(enrolled)
        reply = open_update(protocol.Channel(token), size=64, method=7)
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_METHOD)
        assert token.boot_count == 3

    def test_chunk_write_needs_update_mode(self, enrolled):
        token = fresh_token(enrolled)
        reply = send(protocol.Channel(token),
                     gen2.BlockWrite(membank=3, wordptr=0, words=(1,)))
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_MODE)

    def test_chunk_write_bounds_checked(self, enrolled):
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        assert isinstance(open_update(ch, size=64), protocol.AuthReply)
        reply = send(ch, gen2.BlockWrite(membank=3, wordptr=4095, words=(1, 2)))
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_WORDPTR)

    def test_other_membanks_rejected(self, enrolled):
        token = fresh_token(enrolled)
        reply = send(protocol.Channel(token),
                     gen2.BlockWrite(membank=2, wordptr=0, words=(1,)))
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_WORDPTR)

    def test_securecomm_before_authenticate(self, enrolled):
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        assert isinstance(send(ch, gen2.TagPrivilege()), protocol.Ack)
        reply = send(ch, gen2.SecureComm(inner_wordptr=0, ciphertext=bytes(16)))
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_MODE)

    def test_inner_wordptr_past_area_rejected(self, enrolled):
        token = fresh_token(enrolled)
        words = (gen2.DOWNLOAD_WORDS,) + tuple(range(8))
        frame = raw_frame(membank=0, wordptr=gen2.WORDPTR_SECURECOMM, words=words)
        assert token.deliver(frame) == protocol.Nak(protocol.ErrorCode.BAD_WORDPTR)

    def test_bad_crc_is_silence(self, enrolled):
        token = fresh_token(enrolled)
        frame = gen2.encode(gen2.TagPrivilege(), 0x1000)
        bad = gen2.Gen2Frame(bits=frame.bits.flip(20))
        assert token.deliver(bad) is None
        assert not token.nvm.firmware_update_flag

    def test_halted_token_is_silent(self, enrolled):
        token = fresh_token(enrolled, temperature=55.0)
        assert token.state.mode is protocol.TokenMode.HALTED
        assert send(protocol.Channel(token), gen2.TagPrivilege()) is None


M = protocol.TokenMode
E = protocol.ErrorCode
TABLE_SETUP = protocol.UpdateSetup(size=8, start_word=0,
                                   method=protocol.METHOD_CMAC_AES128)
TABLE_CHUNK = (0x0102, 0x0304, 0x0506, 0x0708)
# the frames that take a KEY_READY token to each state below it
TABLE_OPENING = (
    gen2.BlockWrite(membank=0, wordptr=protocol.SETUP_WORDPTR,
                    words=TABLE_SETUP.to_words()),
    gen2.Authenticate(csi=protocol.CSI_CMAC_AES128),
    gen2.BlockWrite(membank=3, wordptr=0, words=TABLE_CHUNK),
)
TABLE_STATES = {   # name: (temperature, update flag, opening frames)
    "halted": (55.0, True, 0),
    "user_code": (25.0, False, 0),
    "key_ready": (25.0, True, 0),
    "key_ready_setup": (25.0, True, 1),
    "firmware_update": (25.0, True, 3),
}
TABLE = [   # state, command, next mode, reply ("auth": the boot's AuthReply), reset
    ("halted", "privilege", M.HALTED, None, False),
    ("halted", "setup", M.HALTED, None, False),
    ("halted", "authenticate", M.HALTED, None, False),
    ("halted", "chunk", M.HALTED, None, False),
    ("halted", "good_tag", M.HALTED, None, False),
    ("halted", "bad_tag", M.HALTED, None, False),
    ("user_code", "privilege", M.USER_CODE, protocol.Ack("privilege"), True),
    ("user_code", "setup", M.USER_CODE, protocol.Nak(E.BAD_MODE), False),
    ("user_code", "authenticate", M.USER_CODE, protocol.Nak(E.BAD_MODE), True),
    ("user_code", "chunk", M.USER_CODE, protocol.Nak(E.BAD_MODE), False),
    ("user_code", "good_tag", M.USER_CODE, protocol.Nak(E.BAD_MODE), True),
    ("user_code", "bad_tag", M.USER_CODE, protocol.Nak(E.BAD_MODE), True),
    ("key_ready", "privilege", M.KEY_READY, protocol.Ack("privilege"), False),
    ("key_ready", "setup", M.KEY_READY, protocol.Ack("setup"), False),
    ("key_ready", "authenticate", M.KEY_READY, protocol.Nak(E.BAD_SETUP), True),
    ("key_ready", "chunk", M.KEY_READY, protocol.Nak(E.BAD_MODE), False),
    ("key_ready", "good_tag", M.KEY_READY, protocol.Nak(E.BAD_MODE), True),
    ("key_ready", "bad_tag", M.KEY_READY, protocol.Nak(E.BAD_MODE), True),
    ("key_ready_setup", "privilege", M.KEY_READY, protocol.Ack("privilege"), True),
    ("key_ready_setup", "setup", M.KEY_READY, protocol.Ack("setup"), False),
    ("key_ready_setup", "authenticate", M.FIRMWARE_UPDATE, "auth", False),
    ("key_ready_setup", "chunk", M.KEY_READY, protocol.Nak(E.BAD_MODE), False),
    ("key_ready_setup", "good_tag", M.KEY_READY, protocol.Nak(E.BAD_MODE), True),
    ("key_ready_setup", "bad_tag", M.KEY_READY, protocol.Nak(E.BAD_MODE), True),
    ("firmware_update", "privilege", M.FIRMWARE_UPDATE, protocol.Ack("privilege"), True),
    ("firmware_update", "setup", M.FIRMWARE_UPDATE, protocol.Nak(E.BAD_MODE), False),
    ("firmware_update", "authenticate", M.FIRMWARE_UPDATE, protocol.Nak(E.BAD_MODE),
     True),
    ("firmware_update", "chunk", M.FIRMWARE_UPDATE, protocol.Ack("chunk"), False),
    ("firmware_update", "good_tag", M.FIRMWARE_UPDATE, protocol.Ack("commit"), True),
    ("firmware_update", "bad_tag", M.FIRMWARE_UPDATE, protocol.Nak(E.MAC_MISMATCH),
     True),
]


def table_state(enrolled, name):
    dev, record, _ = enrolled
    temperature, flag, opening = TABLE_STATES[name]
    nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=flag)
    state = protocol.token_boot(dev, nvm, temperature, boot_seed=1)
    for view in TABLE_OPENING[:opening]:
        state, reply, reset = protocol.token_handle(state, gen2.encode(view, rn=0))
        assert not isinstance(reply, protocol.Nak) and not reset
    return state


def table_command(enrolled, name):
    if name.endswith("_tag"):
        # the tag over TABLE_CHUNK that the firmware_update state accepts
        state = table_state(enrolled, "firmware_update")
        image = bytes(state.nvm.download_area[: TABLE_SETUP.size])
        ct = bytearray(mac.sc_encrypt(
            mac.mac_firmware(image, state.auth.nonce, state.key), state.key))
        if name == "bad_tag":
            ct[0] ^= 0x01
        return gen2.SecureComm(inner_wordptr=0, ciphertext=bytes(ct))
    return {
        "privilege": gen2.TagPrivilege(),
        "setup": TABLE_OPENING[0],
        "authenticate": TABLE_OPENING[1],
        "chunk": TABLE_OPENING[2],
    }[name]


@pytest.mark.parametrize("state_name,command,mode,expected,reset", TABLE,
                         ids=[f"{row[0]}-{row[1]}" for row in TABLE])
def test_token_handle_table(enrolled, state_name, command, mode, expected, reset):
    """Every (state, command) pair: the next mode, the reply and the reset.
    Only a good tag in FIRMWARE_UPDATE changes the application area, and
    only a reset changes the key."""
    state = table_state(enrolled, state_name)
    auth, key = state.auth, state.key
    app = bytes(state.nvm.app_area)
    frame = gen2.encode(table_command(enrolled, command), rn=0)
    state, reply, did_reset = protocol.token_handle(state, frame)
    assert state.mode is mode
    assert reply == (auth if expected == "auth" else expected)
    assert did_reset is reset
    assert state.key == key
    if reply == protocol.Ack("commit"):
        image = struct.pack(">4H", *TABLE_CHUNK)
        assert bytes(state.nvm.app_area) == image + app[len(image):]
        assert not state.nvm.firmware_update_flag
    else:
        assert bytes(state.nvm.app_area) == app


@pytest.mark.parametrize("membank,wordptr,words,error,message", [
    (3, 0, (), gen2.FrameFormatError, "empty write"),
    (0, gen2.WORDPTR_SECURECOMM, (0, 1, 2), gen2.UnknownDiscriminatorError,
     "malformed encrypted-write wrapper"),
    (3, 1 << 7 * gen2.EBV_MAX_GROUPS, (1,), gen2.FrameFormatError, "EBV field too long"),
], ids=["empty-write", "three-word-wrapper", "six-ebv-groups"])
def test_crc_valid_malformed_frame_is_silence(enrolled, membank, wordptr, words,
                                              error, message):
    """A frame whose CRC holds but whose structure does not gets no reply,
    even in FIRMWARE_UPDATE, and changes nothing on the token."""
    frame = raw_frame(membank=membank, wordptr=wordptr, words=words)
    with pytest.raises(error, match=message):
        gen2.decode(frame)
    state = table_state(enrolled, "firmware_update")

    def snapshot():
        nvm = state.nvm
        return (state.mode, state.key, state.auth, state.setup, nvm.firmware_update_flag,
                bytes(nvm.app_area), bytes(nvm.download_area))

    before = snapshot()
    state, reply, reset = protocol.token_handle(state, frame)
    assert (reply, reset) == (None, False)
    assert snapshot() == before


class TestEndToEnd:
    def test_clean_session_commits(self, enrolled):
        dev, record, db = enrolled
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        out = protocol.prover_update(db, 11, IMAGE, ch)
        assert out is protocol.UpdateOutcome.COMMITTED
        assert bytes(token.nvm.app_area[: IMAGE.total_bytes]) == IMAGE.assemble()
        assert not token.nvm.firmware_update_flag
        assert token.state.mode is protocol.TokenMode.USER_CODE

    def test_transcript_lines_are_valid_frames(self, enrolled):
        _, _, db = enrolled
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        protocol.prover_update(db, 11, IMAGE, ch)
        assert len(ch.frames) == 8
        views = [gen2.decode(frame) for frame in ch.frames]
        assert isinstance(views[0], gen2.TagPrivilege)
        assert isinstance(views[2], gen2.Authenticate)
        assert isinstance(views[-1], gen2.SecureComm)

    def test_sessions_are_deterministic(self, enrolled):
        _, _, db = enrolled
        t1 = fresh_token(enrolled, session_seed=5)
        t2 = fresh_token(enrolled, session_seed=5)
        c1, c2 = protocol.Channel(t1), protocol.Channel(t2)
        protocol.prover_update(db, 11, IMAGE, c1)
        protocol.prover_update(db, 11, IMAGE, c2)
        assert c1.frames == c2.frames

    def test_shuffled_and_duplicated_chunks_reassemble(self, enrolled):
        dev, record, db = enrolled
        token = fresh_token(enrolled, session_seed=9)
        ch = protocol.Channel(token)
        auth = open_update(ch, size=IMAGE.total_bytes)
        assert isinstance(auth, protocol.AuthReply)
        key = protocol.recover_key(record, auth)
        data = IMAGE.assemble()
        padded = data + b"\x00" * (len(data) % 2)
        words = [int.from_bytes(padded[i : i + 2], "big") for i in range(0, len(padded), 2)]
        chunks = [
            gen2.BlockWrite(membank=3, wordptr=i, words=tuple(words[i : i + 32]))
            for i in range(0, len(words), 32)
        ]
        rng = random.Random(4)
        order = chunks + [chunks[0], chunks[2]]
        rng.shuffle(order)
        for c in order:
            assert isinstance(send(ch, c), protocol.Ack)
        tag = mac.mac_firmware(data, auth.nonce, key)
        reply = send(ch, gen2.SecureComm(
            inner_wordptr=0, ciphertext=mac.sc_encrypt(tag, key)))
        assert reply == protocol.Ack("commit")
        assert bytes(token.nvm.app_area[: len(data)]) == data


@pytest.fixture(scope="module")
def miscorrecting():
    """Device 7 of bench's seed-2 update-clean fleet. At its main-stream
    session index 23,700 (33.14 C, session seed 23,701), the first update
    boot has a block past t that BCH decodes to a wrong codeword."""
    dev = puf.synth_device(seed=423903237)
    record = enroll.enroll_device(dev, "dev-7")
    db = protocol.ProverDb()
    db.add(record)
    return dev, record, db


MISCORRECTED_IMAGE = protocol.demo_images()["blinky"]


def miscorrected_session(miscorrecting, channel_type=protocol.Channel):
    dev, record, db = miscorrecting
    token = protocol.TokenSim(dev, record.crp_map, temperature=33.14,
                              session_seed=23701)
    channel = channel_type(token)
    out = protocol.prover_update(db, "dev-7", MISCORRECTED_IMAGE, channel,
                                 rng_seed=1839324821)
    return token, channel, out


def test_silent_miscorrection_retried(miscorrecting):
    """recover_key returns a wrong key instead of raising, so the token
    answers the tag with MAC_MISMATCH and resets. The prover retries under
    that reset's boot, which TagPrivilege keeps: 4 boots (power-on,
    privilege, the NAK's reset, the commit's reset) and two 11-frame
    attempts."""
    dev, record, _ = miscorrecting
    token, channel, out = miscorrected_session(miscorrecting)
    assert out is protocol.UpdateOutcome.COMMITTED
    data = MISCORRECTED_IMAGE.data
    assert bytes(token.nvm.app_area) == data + bytes(len(token.nvm.app_area) - len(data))
    assert (token.boot_count, channel.counter) == (4, 22)

    nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
    st = protocol.token_boot(dev, nvm, 33.14, boot_seed=23701 * 100_000 + 2)
    assert protocol.recover_key(record, st.auth) != st.key


class KeyWitness(protocol.Channel):
    """Notes the (boot, key) that answers each Authenticate, and the pair
    each SecureComm is checked under next to the latest answer."""

    def __init__(self, token):
        super().__init__(token)
        self.auths = []
        self.tags = []

    def send(self, frame):
        if isinstance(gen2.decode(frame), gen2.SecureComm):
            self.tags.append(((self.token.boot_count, self.token.state.key),
                              self.auths[-1]))
        reply = super().send(frame)
        if isinstance(reply, protocol.AuthReply):
            self.auths.append((self.token.boot_count, self.token.state.key))
        return reply


class BrownoutWitness(KeyWitness):
    def send(self, frame):
        if self.counter == 5:
            self.token.inject_brownout()
        return super().send(frame)


@pytest.mark.parametrize("retry", ["mac-mismatch", "brownout"])
def test_commit_after_retry_uses_the_answering_boots_key(enrolled, miscorrecting, retry):
    """No commit under an earlier boot's key: every tag is checked under the
    boot that answered its attempt's Authenticate, and the committing boot
    is not the first attempt's."""
    if retry == "mac-mismatch":
        _, channel, out = miscorrected_session(miscorrecting, KeyWitness)
    else:
        channel = BrownoutWitness(fresh_token(enrolled, session_seed=50))
        out = protocol.prover_update(enrolled[2], 11, IMAGE, channel)
    assert out is protocol.UpdateOutcome.COMMITTED
    assert len(channel.auths) == 2
    assert all(checked == answered for checked, answered in channel.tags)
    assert channel.tags[-1][0] == channel.auths[-1]
    assert channel.auths[-1][0] > channel.auths[0][0]


class TestTamperAndReplay:
    def test_chunk_bit_flips_never_commit(self, enrolled):
        _, _, db = enrolled
        for frame_idx in range(3, 7):      # the four chunk frames
            for bitpos in (11, 97, 333):
                token = fresh_token(enrolled, session_seed=20 + frame_idx)
                policy = protocol.TamperPolicy(flips={frame_idx: (bitpos,)})
                ch = protocol.Channel(token, policy)
                out = protocol.prover_update(db, 11, IMAGE, ch)
                assert out is not protocol.UpdateOutcome.COMMITTED
                assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))

    def test_image_tampered_in_every_attempt_rejected(self, enrolled):
        """A chunk mutated in each attempt fails each tag check: the prover
        stops after MAX_ATTEMPTS SecureComm deliveries."""
        _, _, db = enrolled
        frames = 8   # boot-shim: privilege, setup, authenticate, 4 chunks, tag
        policy = protocol.TamperPolicy(mutations=frozenset(
            4 + a * frames for a in range(protocol.MAX_ATTEMPTS)))
        token = fresh_token(enrolled, session_seed=33)
        ch = protocol.Channel(token, policy)
        out = protocol.prover_update(db, 11, IMAGE, ch)
        assert out is protocol.UpdateOutcome.REJECTED_BY_TOKEN
        tags = [f for f in ch.frames if isinstance(gen2.decode(f), gen2.SecureComm)]
        assert len(tags) == protocol.MAX_ATTEMPTS
        assert ch.counter == protocol.MAX_ATTEMPTS * frames
        assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))

    def test_setup_nak_is_a_rejection(self, enrolled):
        """A NAK to the setup write ends the session: a fresh boot cannot
        change BAD_WORDPTR."""
        _, _, db = enrolled

        class SetupMoved(protocol.Channel):
            def send(self, frame):
                view = gen2.decode(frame)
                if isinstance(view, gen2.BlockWrite) and view.membank == 0:
                    frame = gen2.encode(gen2.BlockWrite(
                        membank=0, wordptr=protocol.SETUP_WORDPTR + 1,
                        words=view.words), rn=0)
                return super().send(frame)

        token = fresh_token(enrolled)
        ch = SetupMoved(token)
        out = protocol.prover_update(db, 11, IMAGE, ch)
        assert out is protocol.UpdateOutcome.REJECTED_BY_TOKEN
        assert ch.counter == 2
        assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))

    def test_dropped_frame_times_out(self, enrolled):
        _, _, db = enrolled
        token = fresh_token(enrolled)
        ch = protocol.Channel(token, protocol.TamperPolicy(drops=frozenset({4})))
        out = protocol.prover_update(db, 11, IMAGE, ch)
        assert out is protocol.UpdateOutcome.TIMEOUT
        assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))

    @pytest.mark.parametrize("view", [
        gen2.BlockWrite(membank=0, wordptr=protocol.SETUP_WORDPTR, words=(1, 2, 3)),
        gen2.BlockWrite(membank=3, wordptr=0, words=(0xBEEF, 7)),
        gen2.Authenticate(csi=protocol.CSI_CMAC_AES128),
        gen2.SecureComm(inner_wordptr=0, ciphertext=bytes(16)),
    ], ids=["bank0-write", "bank3-write", "authenticate", "securecomm"])
    def test_mutation_changes_every_kind_but_privilege(self, view):
        frame = gen2.encode(view, rn=5)
        assert gen2.decode(protocol.mutate_payload(frame)) != view

    def test_mutation_leaves_privilege_unchanged(self):
        frame = gen2.encode(gen2.TagPrivilege(), rn=5)
        assert gen2.decode(protocol.mutate_payload(frame)) == gen2.TagPrivilege()

    def test_mutated_authenticate_rejected(self, enrolled):
        _, _, db = enrolled
        mutate_auth = protocol.TamperPolicy(mutations=frozenset({2}))
        ch = protocol.Channel(fresh_token(enrolled), mutate_auth)
        reply = open_update(ch, size=IMAGE.total_bytes)
        assert reply == protocol.Nak(protocol.ErrorCode.BAD_METHOD)

        token = fresh_token(enrolled)
        out = protocol.prover_update(db, 11, IMAGE, protocol.Channel(token, mutate_auth))
        assert out is protocol.UpdateOutcome.REJECTED_BY_TOKEN
        assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))

    def test_tampered_helper_never_commits(self, enrolled):
        """Helper tamper aimed at an information coordinate corrupts the key."""
        dev, record, db = enrolled
        token = fresh_token(enrolled, session_seed=31)
        ch = protocol.Channel(token)
        auth = open_update(ch, size=IMAGE.total_bytes)
        assert isinstance(auth, protocol.AuthReply)

        code = bch.make_code(31, 16, 3)
        # block 0 slice of the helper, bit i of the int at wire bit i
        twist = fuzzy.reverse_bits(bch.syndrome(1 << code.n - code.k + 1, code), 120)
        helper = (int.from_bytes(auth.helper, "big") ^ twist).to_bytes(15, "big")
        committed = False
        try:
            key = protocol.recover_key(
                record, protocol.AuthReply(auth.nonce, auth.challenge, helper))
        except fuzzy.KeyRecoveryFailure:
            key = None
        if key is not None:
            data = IMAGE.assemble()
            padded = data + b"\x00" * (len(data) % 2)
            words = [int.from_bytes(padded[i:i+2], "big") for i in range(0, len(padded), 2)]
            for i in range(0, len(words), 32):
                send(ch, gen2.BlockWrite(membank=3, wordptr=i, words=tuple(words[i:i+32])))
            tag = mac.mac_firmware(data, auth.nonce, key)
            reply = send(ch, gen2.SecureComm(
                inner_wordptr=0, ciphertext=mac.sc_encrypt(tag, key)))
            committed = reply == protocol.Ack("commit")
            assert reply == protocol.Nak(protocol.ErrorCode.MAC_MISMATCH)
        assert not committed
        assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))

    def test_replayed_securecomm_rejected(self, enrolled):
        _, _, db = enrolled
        token = fresh_token(enrolled, session_seed=40)
        ch = protocol.Channel(token)
        assert protocol.prover_update(db, 11, IMAGE, ch) is protocol.UpdateOutcome.COMMITTED
        stale = ch.frames[-1]
        committed_app = bytes(token.nvm.app_area)

        other = protocol.demo_images()["sense"]
        ch2 = protocol.Channel(token)
        auth = open_update(ch2, size=other.total_bytes)
        assert isinstance(auth, protocol.AuthReply)
        data = other.assemble()
        padded = data + b"\x00" * (len(data) % 2)
        words = [int.from_bytes(padded[i:i+2], "big") for i in range(0, len(padded), 2)]
        for i in range(0, len(words), 32):
            send(ch2, gen2.BlockWrite(membank=3, wordptr=i, words=tuple(words[i:i+32])))
        reply = ch2.send(stale)
        assert reply == protocol.Nak(protocol.ErrorCode.MAC_MISMATCH)
        assert bytes(token.nvm.app_area) == committed_app

    @pytest.mark.parametrize("resize", [lambda h: h[:14], lambda h: h + b"\x00",
                                        lambda h: h + b"\x01"],
                             ids=["short", "long-zero", "long-one"])
    def test_wrong_length_helper_is_a_key_failure(self, enrolled, resize):
        _, _, db = enrolled

        class ResizingChannel(protocol.Channel):
            def send(self, frame):
                reply = super().send(frame)
                if isinstance(reply, protocol.AuthReply):
                    reply = protocol.AuthReply(reply.nonce, reply.challenge,
                                               resize(reply.helper))
                return reply

        token = fresh_token(enrolled, session_seed=3)
        out = protocol.prover_update(db, 11, IMAGE, ResizingChannel(token))
        assert out is protocol.UpdateOutcome.KEY_RECOVERY_FAILURE
        assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))


class BrownoutChannel(protocol.Channel):
    def __init__(self, token, at_index):
        super().__init__(token)
        self.at_index = at_index
        self.fired = False

    def send(self, frame):
        if not self.fired and self.counter == self.at_index:
            self.fired = True
            self.token.inject_brownout()
        return super().send(frame)


class TestBrownout:
    def test_volatile_cleared_before_any_handling(self, enrolled):
        token = fresh_token(enrolled)
        ch = protocol.Channel(token)
        assert isinstance(open_update(ch, size=IMAGE.total_bytes), protocol.AuthReply)
        assert token.state.key is not None
        token.inject_brownout()
        assert token.state.volatile_cleared()
        assert token.state.mode is protocol.TokenMode.HALTED
        assert send(ch, gen2.BlockWrite(membank=3, wordptr=0, words=(1,))) is None

    def test_prover_retries_after_brownout(self, enrolled):
        _, _, db = enrolled
        token = fresh_token(enrolled, session_seed=50)
        ch = BrownoutChannel(token, at_index=5)
        out = protocol.prover_update(db, 11, IMAGE, ch)
        assert out is protocol.UpdateOutcome.COMMITTED
        assert bytes(token.nvm.app_area[: IMAGE.total_bytes]) == IMAGE.assemble()

    def test_mid_transfer_brownout_leaves_app_area_alone(self, enrolled):
        token = fresh_token(enrolled, session_seed=51)
        before = bytes(token.nvm.app_area)
        ch = protocol.Channel(token)
        auth = open_update(ch, size=IMAGE.total_bytes)
        assert isinstance(auth, protocol.AuthReply)
        send(ch, gen2.BlockWrite(membank=3, wordptr=0, words=(0xAAAA,) * 32))
        token.inject_brownout()
        assert bytes(token.nvm.app_area) == before


class TestSessionIndependence:
    def test_fresh_nonce_and_helper_per_session(self, enrolled):
        _, record, _ = enrolled
        token = fresh_token(enrolled, session_seed=60)
        blocks = len(record.crp_map)
        seen = []
        for _ in range(6):
            ch = protocol.Channel(token)
            auth = open_update(ch, size=64)
            assert isinstance(auth, protocol.AuthReply)
            seen.append(auth)
            token.power_cycle()
        nonces = {a.nonce for a in seen}
        assert len(nonces) == len(seen)
        by_block = {}
        for a in seen:
            by_block.setdefault(a.challenge % blocks, set()).add(a.helper)
        for b1 in by_block:
            for b2 in by_block:
                if b1 != b2:
                    assert by_block[b1].isdisjoint(by_block[b2])

    def test_cross_session_key_never_validates(self, enrolled):
        dev, record, db = enrolled
        token = fresh_token(enrolled, session_seed=70)
        ch = protocol.Channel(token)
        auth1 = open_update(ch, size=IMAGE.total_bytes)
        key1 = protocol.recover_key(record, auth1)
        blocks = len(record.crp_map)
        for _ in range(40):    # land on a session with a different CRP block
            token.power_cycle()
            ch2 = protocol.Channel(token)
            auth2 = open_update(ch2, size=IMAGE.total_bytes)
            if auth2.challenge % blocks != auth1.challenge % blocks:
                break
        else:
            pytest.fail("never drew a different challenge block")
        assert auth2.nonce != auth1.nonce
        data = IMAGE.assemble()
        padded = data + b"\x00" * (len(data) % 2)
        words = [int.from_bytes(padded[i:i+2], "big") for i in range(0, len(padded), 2)]
        for i in range(0, len(words), 32):
            send(ch2, gen2.BlockWrite(membank=3, wordptr=i, words=tuple(words[i:i+32])))
        tag = mac.mac_firmware(data, auth2.nonce, key1)   # stale key, fresh nonce
        reply = send(ch2, gen2.SecureComm(
            inner_wordptr=0, ciphertext=mac.sc_encrypt(tag, key1)))
        assert reply == protocol.Nak(protocol.ErrorCode.MAC_MISMATCH)
        assert bytes(token.nvm.app_area) == bytes(len(token.nvm.app_area))


class TestKeyLinkage:
    """One leaked session key exposes every other key of its CRP block.

    Per 31-bit sub-block, a key's 16 information bits m and the helper's 15
    syndrome bits s fix the readout the token booted with: it is
    bch.encode(m) ^ s. The prover's own fe_rec turns that readout and any
    other boot's public helper into that boot's key, whenever the two
    readouts lie within t of each other in every sub-block.
    """

    def test_leaked_key_and_public_helpers_give_every_key_of_the_block(self, enrolled):
        dev, record, _ = enrolled
        cfg = protocol.FE_CONFIG
        n, k = cfg.code.n, cfg.code.k
        nvm = protocol.TokenNvm(crp_map=record.crp_map, firmware_update_flag=True)
        by_block = {}
        for boot_seed in range(1, 61):
            st = protocol.token_boot(dev, nvm, 25.0, boot_seed=boot_seed)
            key = fuzzy.reverse_bits(int.from_bytes(st.key, "big"), cfg.key_bits)
            helper = fuzzy.reverse_bits(int.from_bytes(st.auth.helper, "big"),
                                        cfg.helper_bits)
            block = st.auth.challenge % len(record.crp_map)
            by_block.setdefault(block, []).append((key, helper))
        pairs = 0
        for boots in by_block.values():
            for i, (key_i, h_i) in enumerate(boots):
                r_i = 0
                for b in range(cfg.blocks):
                    m = (key_i >> b * k) & ((1 << k) - 1)
                    s = (h_i >> b * (n - k)) & ((1 << n - k) - 1)
                    r_i |= (bch.encode(m, cfg.code) ^ s) << b * n
                assert fuzzy.fe_gen(r_i, cfg) == (key_i, h_i)
                for j, (key_j, h_j) in enumerate(boots):
                    if j != i:
                        assert fuzzy.fe_rec(r_i, h_j, cfg) == key_j
                        pairs += 1
        assert pairs > 0
        # not vacuous: some block holds keys that differ
        assert max(len({key for key, _ in boots}) for boots in by_block.values()) >= 2


class TestWireOrderPinned:
    """Frozen wire bytes for device seed 11, session seed 2.

    The hex values were captured from the tuple-of-bits implementation that
    preceded the int bit vectors; any drift in bit order (LSB-first SRAM
    bytes, MSB-first nonce, helper and key packing) changes them.
    """

    def test_auth_reply_and_key_bytes(self, enrolled):
        dev, record, _ = enrolled
        token = fresh_token(enrolled, session_seed=2)
        auth = open_update(protocol.Channel(token), size=64)
        assert auth.nonce.hex() == "6ef7b228d9632d9e96b3b8e95597b875"
        assert auth.challenge == 92
        assert auth.helper.hex() == "02527d55302b66611d15893886a33a"
        assert token.state.key.hex() == "b1e8298e365159c5aacb7331c793655c"
        assert protocol.recover_key(record, auth) == token.state.key

    def test_challenge_to_response_value(self, enrolled):
        dev, record, _ = enrolled
        r = enroll.challenge_to_response(
            record.crp_map, 92, puf.readout(dev, 25.0, trial_seed=3)
        )
        assert r == int(
            "3aa6396393c6353a333935c69aaab13a39a9d1b14d8b4e1c652e368bc6a587", 16
        )
