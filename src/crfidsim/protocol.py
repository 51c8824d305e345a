"""Token and prover state machines with a tamper-capable channel.

A session walks the wire flow end to end: privilege drop, setup write,
key exchange (nonce, challenge, helper data), chunked image transfer
into the download area, then one encrypted tag whose verification gates
the copy into the application area. Every reset or brownout wipes the
volatile key material; the application area changes only in token_handle's
SecureComm branch, after the tag check passes.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import enroll, fuzzy, gen2, mac, powersim, puf
from .layout import DEFAULT_LAYOUT

# 8 x BCH(31,16,3): the only split of the 248-bit CRP block into a 128-bit
# AES key and 120 helper bits (15 wire bytes)
FE_CONFIG = fuzzy.default_config()
CHUNK_WORDS = 32
START_WORD = 0
MAX_ATTEMPTS = 3
SETUP_WORDPTR = 0x04
METHOD_CMAC_AES128 = 0x01
CSI_CMAC_AES128 = 0x01

TEMP_LEGAL_MIN = 0.0
TEMP_LEGAL_MAX = 40.0


class TokenMode(enum.Enum):
    KEY_READY = "KeyReady"
    FIRMWARE_UPDATE = "FirmwareUpdate"
    USER_CODE = "UserCode"
    HALTED = "Halted"


class ErrorCode(enum.Enum):
    BAD_MODE = 1
    BAD_SETUP = 2
    SIZE_TOO_LARGE = 3
    BAD_WORDPTR = 4
    BAD_METHOD = 5
    MAC_MISMATCH = 6


class UpdateOutcome(enum.Enum):
    COMMITTED = "Committed"
    REJECTED_BY_TOKEN = "RejectedByToken"
    KEY_RECOVERY_FAILURE = "KeyRecoveryFailure"
    BROWNOUT_ABORTED = "BrownoutAborted"
    TIMEOUT = "Timeout"


class DuplicateEnrollmentError(ValueError):
    pass


class UnknownTokenError(KeyError):
    pass


# ------------------------------------------------------------------ replies

@dataclass(frozen=True)
class Ack:
    what: str


@dataclass(frozen=True)
class Nak:
    code: ErrorCode


@dataclass(frozen=True)
class AuthReply:
    nonce: bytes
    challenge: int
    helper: bytes


Reply = Ack | Nak | AuthReply | None


# ----------------------------------------------------------------- firmware

@dataclass(frozen=True)
class FirmwareImage:
    """The image bytes, loaded at START_WORD of the download area."""

    data: bytes

    def __post_init__(self) -> None:
        if not self.data:
            raise ValueError("empty image")

    @property
    def total_bytes(self) -> int:
        return len(self.data)

    def assemble(self) -> bytes:
        return self.data


def demo_images() -> dict[str, FirmwareImage]:
    """Three fixed pseudorandom images of unequal size."""
    out = {}
    for name, size in (("blinky", 399), ("sense", 273), ("boot-shim", 223)):
        rng = random.Random(f"fw-{name}")
        out[name] = FirmwareImage(rng.randbytes(size))
    return out


# ----------------------------------------------------------------- database

class ProverDb:
    """token_id -> enrollment record, write-once per token."""

    def __init__(self) -> None:
        self._records: dict[int, enroll.EnrollmentRecord] = {}

    def add(self, record: enroll.EnrollmentRecord) -> None:
        if record.device_id in self._records:
            raise DuplicateEnrollmentError(f"token {record.device_id} already enrolled")
        self._records[record.device_id] = record

    def get(self, token_id: str) -> enroll.EnrollmentRecord:
        try:
            return self._records[token_id]
        except KeyError:
            raise UnknownTokenError(f"token {token_id} not enrolled") from None


# -------------------------------------------------------------- token state

@dataclass(frozen=True)
class UpdateSetup:
    size: int
    start_word: int
    method: int

    def to_words(self) -> tuple[int, int, int, int]:
        if not 0 <= self.size < (1 << 32):
            raise ValueError("size out of u32 range")
        return (
            (self.size >> 16) & 0xFFFF,
            self.size & 0xFFFF,
            self.start_word & 0xFFFF,
            (self.method & 0xFF) << 8,
        )

    @classmethod
    def from_words(cls, words: Sequence[int]) -> "UpdateSetup":
        if len(words) != 4:
            raise ValueError("setup needs exactly 4 words")
        return cls(
            size=(words[0] << 16) | words[1],
            start_word=words[2],
            method=(words[3] >> 8) & 0xFF,
        )


@dataclass
class TokenNvm:
    crp_map: enroll.CrpBlockMap
    firmware_update_flag: bool = False
    app_area: bytearray = field(
        default_factory=lambda: bytearray(DEFAULT_LAYOUT.app_bytes)
    )
    download_area: bytearray = field(
        default_factory=lambda: bytearray(DEFAULT_LAYOUT.download_bytes)
    )


@dataclass
class TokenState:
    mode: TokenMode
    nvm: TokenNvm
    key: bytes | None = None        # this update boot's AES key; None otherwise
    auth: AuthReply | None = None   # what Authenticate answers; update boots only
    setup: UpdateSetup | None = None  # written in KEY_READY, used in FIRMWARE_UPDATE

    def volatile_cleared(self) -> bool:
        return self.key is None and self.auth is None and self.setup is None


def _to_wire(bits: int, nbits: int) -> bytes:
    """bch's int bit order as MSB-first bytes: bit i goes to wire bit i."""
    return fuzzy.reverse_bits(bits, nbits).to_bytes(nbits // 8, "big")


def token_boot(
    device: puf.PufDevice,
    nvm: TokenNvm,
    temperature: float,
    boot_seed: int,
) -> TokenState:
    """Power-on flow: temperature gate, then the update flag.

    A clear flag boots into user code, which never needs a session key, so
    that boot draws no nonce, reads no PUF block and runs no fe_gen. Only an
    update boot (flag set) derives its nonce, challenge, key and helper from
    boot_seed.
    """
    if not TEMP_LEGAL_MIN <= temperature <= TEMP_LEGAL_MAX:
        return TokenState(mode=TokenMode.HALTED, nvm=nvm)
    if not nvm.firmware_update_flag:
        return TokenState(mode=TokenMode.USER_CODE, nvm=nvm)
    nonce = puf.trng_next(device, 128, trial_seed=4 * boot_seed,
                          temperature=temperature)
    c_bits = puf.trng_next(device, 8, trial_seed=4 * boot_seed + 1,
                           temperature=temperature)
    challenge = int(np.packbits(c_bits)[0])
    # power-up values of the challenged block's span only, first byte to last
    block = nvm.crp_map.block_for_challenge(challenge)
    lo, hi = 8 * block[0], 8 * (block[-1] + 1)
    cells = puf.readout_cells(device, temperature, 4 * boot_seed + 2, lo, hi)
    r = enroll.challenge_to_response(nvm.crp_map, challenge, cells, first_cell=lo)
    key, helper = fuzzy.fe_gen(r, FE_CONFIG)
    return TokenState(
        mode=TokenMode.KEY_READY,
        nvm=nvm,
        key=_to_wire(key, FE_CONFIG.key_bits),
        auth=AuthReply(nonce=np.packbits(nonce).tobytes(), challenge=challenge,
                       helper=_to_wire(helper, FE_CONFIG.helper_bits)),
    )


def token_handle(
    state: TokenState, frame: gen2.Gen2Frame
) -> tuple[TokenState, Reply, bool]:
    """One reader frame against the token state machine.

    Returns the next state, the reply and whether the token resets now.
    """
    if state.mode is TokenMode.HALTED:
        return state, None, False
    try:
        view = gen2.decode(frame)
    except gen2.BadCrcError:
        return state, None, False
    except gen2.WordPtrRangeError:
        return state, Nak(ErrorCode.BAD_WORDPTR), False
    except (gen2.UnknownDiscriminatorError, gen2.FrameFormatError):
        return state, None, False

    if isinstance(view, gen2.TagPrivilege):
        state.nvm.firmware_update_flag = True
        return state, Ack("privilege"), True

    if isinstance(view, gen2.BlockWrite) and view.membank == 0:
        if view.wordptr != SETUP_WORDPTR:
            return state, Nak(ErrorCode.BAD_WORDPTR), False
        if state.mode is not TokenMode.KEY_READY:
            return state, Nak(ErrorCode.BAD_MODE), False
        if len(view.words) != 4:
            return state, Nak(ErrorCode.BAD_SETUP), False
        state.setup = UpdateSetup.from_words(view.words)
        return state, Ack("setup"), False

    if isinstance(view, gen2.Authenticate):
        if state.mode is not TokenMode.KEY_READY:
            return state, Nak(ErrorCode.BAD_MODE), True
        setup = state.setup
        if setup is None:
            return state, Nak(ErrorCode.BAD_SETUP), True
        if view.csi != CSI_CMAC_AES128 or setup.method != METHOD_CMAC_AES128:
            return state, Nak(ErrorCode.BAD_METHOD), True
        area_bytes = len(state.nvm.download_area)
        if setup.start_word >= area_bytes // 2:
            return state, Nak(ErrorCode.BAD_WORDPTR), True
        if setup.size <= 0 or 2 * setup.start_word + setup.size > area_bytes:
            return state, Nak(ErrorCode.SIZE_TOO_LARGE), True
        off = 2 * setup.start_word
        state.nvm.download_area[off : off + setup.size] = bytes(setup.size)
        state.mode = TokenMode.FIRMWARE_UPDATE
        return state, state.auth, False

    if isinstance(view, gen2.BlockWrite):   # membank 1..3: data-plane write
        if view.membank != 3:
            return state, Nak(ErrorCode.BAD_WORDPTR), False
        if state.mode is not TokenMode.FIRMWARE_UPDATE:
            return state, Nak(ErrorCode.BAD_MODE), False
        area_words = len(state.nvm.download_area) // 2
        if view.wordptr + len(view.words) > area_words:
            return state, Nak(ErrorCode.BAD_WORDPTR), False
        off = 2 * view.wordptr
        state.nvm.download_area[off : off + 2 * len(view.words)] = struct.pack(
            f">{len(view.words)}H", *view.words
        )
        return state, Ack("chunk"), False

    if isinstance(view, gen2.SecureComm):
        if state.mode is not TokenMode.FIRMWARE_UPDATE:
            return state, Nak(ErrorCode.BAD_MODE), True
        setup = state.setup
        s_prime = mac.sc_decrypt(view.ciphertext, state.key)
        off = 2 * setup.start_word
        received = bytes(state.nvm.download_area[off : off + setup.size])
        if mac.mac_firmware(received, state.auth.nonce, state.key) != s_prime:
            return state, Nak(ErrorCode.MAC_MISMATCH), True
        state.nvm.app_area[off : off + setup.size] = received
        state.nvm.firmware_update_flag = False
        return state, Ack("commit"), True

    return state, None, False


# ------------------------------------------------------------- simulation

class TokenSim:
    """One simulated token: device, NVM, auto power-on reset handling.

    Without a harvest, energy is None and unlimited. With one, every boot
    charges the capacitor to V_BOOT, the boot's work and every frame run
    through powersim.run_ops, and a brownout wipes the volatile state at
    the op where it occurs; energy.time_ms is the token's own clock.
    """

    def __init__(
        self,
        device: puf.PufDevice,
        crp_map: enroll.CrpBlockMap,
        temperature: float = 25.0,
        session_seed: int = 0,
        harvest: powersim.Harvest | None = None,
    ) -> None:
        self.device = device
        self.nvm = TokenNvm(crp_map=crp_map)
        self.temperature = temperature
        self.session_seed = session_seed
        self.harvest = harvest
        self.energy = None if harvest is None else powersim.EnergyState(
            v_cap=0.0, rate=harvest.rate)
        self.boot_count = 0
        self.power_cycle()

    def _run(self, ops: tuple[powersim.PlanOp, ...]) -> bool:
        """Charge ops to the capacitor; False after a brownout."""
        res = powersim.run_ops(ops, self.harvest.sleep_ms, self.energy)
        self.energy = res.state
        if not res.success:
            self.inject_brownout()
        return res.success

    def _frame_ops(self, frame: gen2.Gen2Frame) -> tuple[powersim.PlanOp, ...]:
        """A frame's handling, plus the tag check of a SecureComm in an update."""
        if self.state.mode is TokenMode.FIRMWARE_UPDATE:
            try:
                if isinstance(gen2.decode(frame), gen2.SecureComm):
                    return (powersim.FRAME, powersim.mac_op(self.state.setup.size + 16))
            except ValueError:   # token_handle ignores or rejects the frame
                pass
        return (powersim.FRAME,)

    def power_cycle(self) -> None:
        self.brownout_pending = False
        self.boot_count += 1
        self.state = token_boot(
            self.device,
            self.nvm,
            self.temperature,
            boot_seed=self.session_seed * 100_000 + self.boot_count,
        )
        if self.energy is not None:
            wait = powersim.time_to_voltage(self.energy, powersim.V_BOOT)
            self.energy = powersim.charge(self.energy, wait)
            booted_for_update = self.state.mode is TokenMode.KEY_READY
            self._run(powersim.UPDATE_BOOT_OPS if booted_for_update
                      else (powersim.TEMP_CHECK,))

    def inject_brownout(self) -> None:
        """Supply dipped below the operating threshold mid-session."""
        self.state = TokenState(TokenMode.HALTED, self.nvm)
        self.brownout_pending = True

    def deliver(self, frame: gen2.Gen2Frame) -> Reply:
        if self.brownout_pending:
            return None
        if self.energy is not None and not self._run(self._frame_ops(frame)):
            return None
        self.state, reply, reset = token_handle(self.state, frame)
        if reset:
            self.power_cycle()
        return reply


def mutate_payload(frame: gen2.Gen2Frame) -> gen2.Gen2Frame:
    """Flip one payload bit and re-frame with a fresh valid CRC (an active
    relay), so the token answers instead of staying silent on a bad CRC.

    A TagPrivilege frame carries only its fixed word, so it passes unchanged.
    """
    view = gen2.decode(frame)
    if isinstance(view, gen2.Authenticate):
        view = gen2.Authenticate(csi=view.csi ^ 0x01)
    elif isinstance(view, gen2.SecureComm):
        ct = bytearray(view.ciphertext)
        ct[0] ^= 0x01
        view = gen2.SecureComm(inner_wordptr=view.inner_wordptr, ciphertext=bytes(ct))
    elif isinstance(view, gen2.BlockWrite):
        words = list(view.words)
        words[0] ^= 0x0001
        view = gen2.BlockWrite(membank=view.membank, wordptr=view.wordptr,
                               words=tuple(words))
    return gen2.encode(view, rn=0)


@dataclass
class TamperPolicy:
    """Frame-level channel interference, keyed by delivery index.

    A dropped frame never reaches the token; a mutated frame has its
    payload rewritten by mutate_payload; flips then invert raw frame bits.
    """

    flips: dict[int, tuple[int, ...]] = field(default_factory=dict)
    drops: frozenset[int] = frozenset()
    mutations: frozenset[int] = frozenset()


class Channel:
    """Reader-to-token transport with optional tampering; frames holds
    every frame delivered, as the token received it."""

    def __init__(self, token: TokenSim, policy: TamperPolicy | None = None) -> None:
        self.token = token
        self.policy = policy or TamperPolicy()
        self.counter = 0
        self.frames: list[gen2.Gen2Frame] = []

    def send(self, frame: gen2.Gen2Frame) -> Reply:
        index = self.counter
        self.counter += 1
        if index in self.policy.drops:
            return None
        if index in self.policy.mutations:
            frame = mutate_payload(frame)
        flips = self.policy.flips.get(index)
        if flips:
            bits = frame.bits
            for pos in flips:
                bits = bits.flip(pos % bits.length)
            frame = gen2.Gen2Frame(bits=bits)
        self.frames.append(frame)
        return self.token.deliver(frame)

    def reset_token(self) -> None:
        """Models the reader cycling its RF field."""
        self.token.power_cycle()


# ----------------------------------------------------------------- prover

def _image_words(data: bytes) -> list[int]:
    if len(data) % 2:
        data += b"\x00"
    return list(struct.unpack(f">{len(data) // 2}H", data))


def recover_key(record: enroll.EnrollmentRecord, auth: AuthReply) -> bytes:
    """The prover's AES key for a token's AuthReply.

    Raises fuzzy.KeyRecoveryFailure if the helper is not helper_bits long
    (garbled on the air) or a block cannot be decoded.
    """
    nbits = FE_CONFIG.helper_bits
    if len(auth.helper) != nbits // 8:
        raise fuzzy.KeyRecoveryFailure(
            f"helper is {len(auth.helper)} bytes, not {nbits // 8}")
    r_ref = record.reference_for_challenge(auth.challenge)
    helper = fuzzy.reverse_bits(int.from_bytes(auth.helper, "big"), nbits)
    return _to_wire(fuzzy.fe_rec(r_ref, helper, FE_CONFIG), FE_CONFIG.key_bits)


def _run_attempt(
    record: enroll.EnrollmentRecord,
    image: FirmwareImage,
    channel: Channel,
    rng: random.Random,
) -> UpdateOutcome:
    def rn() -> int:
        return rng.randrange(1 << 16)

    def fail_kind() -> UpdateOutcome:
        if channel.token.brownout_pending:
            return UpdateOutcome.BROWNOUT_ABORTED
        return UpdateOutcome.TIMEOUT

    reply = channel.send(gen2.encode(gen2.TagPrivilege(), rn()))
    if not isinstance(reply, Ack):
        return fail_kind()

    assembled = image.assemble()
    setup = UpdateSetup(
        size=len(assembled), start_word=START_WORD, method=METHOD_CMAC_AES128
    )
    reply = channel.send(gen2.encode(
        gen2.BlockWrite(membank=0, wordptr=SETUP_WORDPTR, words=setup.to_words()),
        rn(),
    ))
    if not isinstance(reply, Ack):
        return fail_kind()

    reply = channel.send(gen2.encode(gen2.Authenticate(csi=CSI_CMAC_AES128), rn()))
    if isinstance(reply, Nak):
        return UpdateOutcome.REJECTED_BY_TOKEN
    if not isinstance(reply, AuthReply):
        return fail_kind()
    auth = reply
    try:
        key = recover_key(record, auth)
    except fuzzy.KeyRecoveryFailure:
        return UpdateOutcome.KEY_RECOVERY_FAILURE

    words = _image_words(assembled)
    for i in range(0, len(words), CHUNK_WORDS):
        chunk = gen2.BlockWrite(
            membank=3,
            wordptr=START_WORD + i,
            words=tuple(words[i : i + CHUNK_WORDS]),
        )
        reply = channel.send(gen2.encode(chunk, rn()))
        if not isinstance(reply, Ack):
            return fail_kind()

    tag = mac.mac_firmware(assembled, auth.nonce, key)
    sc = gen2.SecureComm(inner_wordptr=START_WORD, ciphertext=mac.sc_encrypt(tag, key))
    reply = channel.send(gen2.encode(sc, rn()))
    if isinstance(reply, Ack):
        return UpdateOutcome.COMMITTED
    if isinstance(reply, Nak):
        return UpdateOutcome.REJECTED_BY_TOKEN
    return fail_kind()


def prover_update(
    db: ProverDb,
    token_id: str,
    image: FirmwareImage,
    channel: Channel,
    rng_seed: int = 0,
) -> UpdateOutcome:
    """Drive a full update; fresh sessions retry transient key failures."""
    record = db.get(token_id)
    rng = random.Random(rng_seed)
    outcome = UpdateOutcome.TIMEOUT
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            channel.reset_token()
        outcome = _run_attempt(record, image, channel, rng)
        if outcome not in (
            UpdateOutcome.KEY_RECOVERY_FAILURE,
            UpdateOutcome.BROWNOUT_ABORTED,
        ):
            return outcome
    return outcome
