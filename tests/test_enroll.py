"""Enrollment pipeline tests with hand-crafted readout sets."""

import hashlib

import numpy as np
import pytest

from crfidsim import enroll, puf
from crfidsim.layout import DEFAULT_LAYOUT

CELLS = DEFAULT_LAYOUT.sram_bytes * 8
ELIGIBLE_START = DEFAULT_LAYOUT.eligible_start
ELIGIBLE_END = ELIGIBLE_START + DEFAULT_LAYOUT.eligible_bytes

HW4_VALUE = 0x17    # bits 0,1,2,4
HW3_VALUE = 0x07


def set_byte(bits: np.ndarray, address: int, value: int) -> None:
    for j in range(8):
        bits[8 * address + j] = (value >> j) & 1


def base_bits() -> np.ndarray:
    bits = np.zeros(CELLS, dtype=np.uint8)
    for a in range(ELIGIBLE_START, ELIGIBLE_END):
        set_byte(bits, a, HW4_VALUE)
    set_byte(bits, ELIGIBLE_START + 1, HW3_VALUE)
    return bits


def eligible(rows):
    """Full-array rows cut to the eligible region: (reads, bytes, 8)."""
    region = np.stack(rows)[:, 8 * ELIGIBLE_START : 8 * ELIGIBLE_END]
    return region.reshape(len(rows), DEFAULT_LAYOUT.eligible_bytes, 8)


def crafted_reads():
    """Corner flip at byte start+2, nominal tie at byte start+3."""
    corner_rows = []
    for t in (0.0, 40.0):
        for i in range(2):
            bits = base_bits()
            if t == 0.0 and i == 1:
                bits[8 * (ELIGIBLE_START + 2)] ^= 1
            corner_rows.append(bits)
    nominal_rows = []
    for i in range(10):
        bits = base_bits()
        if i < 5:
            bits[8 * (ELIGIBLE_START + 3) + 2] ^= 1
        nominal_rows.append(bits)
    return eligible(corner_rows), eligible(nominal_rows)


class TestPreSelect:
    def test_survivors_and_exclusions(self):
        corners, nominal = crafted_reads()
        stable = enroll.pre_select(corners, nominal)
        assert ELIGIBLE_START in stable
        assert ELIGIBLE_START + 1 in stable       # stable, HW 3
        assert ELIGIBLE_START + 2 not in stable   # corner flip
        assert ELIGIBLE_START + 3 not in stable   # nominal tie
        assert len(stable) == DEFAULT_LAYOUT.eligible_bytes - 2
        assert list(stable) == sorted(stable)

    def test_majority_values_lsb_first(self):
        corners, nominal = crafted_reads()
        stable = enroll.pre_select(corners, nominal)
        assert stable[ELIGIBLE_START] == HW4_VALUE
        assert stable[ELIGIBLE_START + 1] == HW3_VALUE

    def test_majority_outvotes_minority_flips(self):
        corners, _ = crafted_reads()
        rows = [base_bits() for _ in range(10)]
        for i in range(3):   # 3 of 10 flipped: majority keeps the base value
            rows[i][8 * ELIGIBLE_START] ^= 1
        stable = enroll.pre_select(corners, eligible(rows))
        assert stable[ELIGIBLE_START] == HW4_VALUE

    def test_nothing_stable_raises(self):
        zeros = np.zeros(CELLS, dtype=np.uint8)
        ones = np.ones(CELLS, dtype=np.uint8)
        corners = eligible([zeros, ones, zeros, ones])
        nominal = eligible([zeros] * 10)
        with pytest.raises(enroll.InsufficientMaterialError):
            enroll.pre_select(corners, nominal)


class TestDebias:
    def test_keeps_only_weight_four(self):
        out = enroll.debias({200: 0x0F, 201: 0x07, 202: 0xF0, 203: 0xFF})
        assert out == {200: 0x0F, 202: 0xF0}

    def test_order_preserved(self):
        stable = dict.fromkeys(range(300, 340), 0x33)
        out = enroll.debias(stable)
        assert list(out) == list(stable)

    def test_empty_result_raises(self):
        with pytest.raises(enroll.InsufficientMaterialError):
            enroll.debias({128: 0xFF})


class TestBuildMap:
    def test_two_blocks_from_62_bytes(self):
        m = enroll.build_map(tuple(range(500, 562)))
        assert len(m) == 2
        assert m.blocks[0] == tuple(range(500, 531))
        assert m.blocks[1] == tuple(range(531, 562))

    def test_leftover_bytes_unused(self):
        m = enroll.build_map(tuple(range(500, 540)))
        assert len(m) == 1
        assert max(m.blocks[0]) == 530

    def test_offsets_capture_gaps(self):
        addrs = tuple(a for a in range(500, 550) if a % 5 != 0)[:31]
        m = enroll.build_map(addrs)
        assert m.blocks[0] == addrs
        record = enroll.build_record("gaps", dict.fromkeys(addrs, 0x33), m)
        offsets = ",".join(str(o) for o in range(38) if o % 5 != 4)   # 0,1,2,3,5,...
        assert f"block 0: start=501 offsets={offsets}\n" in enroll.record_to_text(record)

    def test_thirty_bytes_is_not_enough(self):
        with pytest.raises(enroll.InsufficientMaterialError):
            enroll.build_map(tuple(range(500, 530)))


class TestEfficiency:
    @pytest.mark.parametrize("blocks,shown", [(2, "5.58"), (4, "11.2"), (8, "22.3")])
    def test_reference_points(self, blocks, shown):
        m = enroll.CrpBlockMap(
            blocks=tuple(tuple(range(128 + 31 * i, 159 + 31 * i)) for i in range(blocks))
        )
        assert f"{100 * enroll.efficiency(m):.3g}" == shown


class TestChallengeToResponse:
    def make_map(self):
        return enroll.CrpBlockMap(blocks=(tuple(range(128, 159)), tuple(range(200, 231))))

    def test_block_selection_wraps(self):
        m = self.make_map()
        bits = base_bits()
        r0 = enroll.challenge_to_response(m, 0, bits)
        r1 = enroll.challenge_to_response(m, 1, bits)
        assert enroll.challenge_to_response(m, 2, bits) == r0
        assert enroll.challenge_to_response(m, 7, bits) == r1

    def test_bits_lsb_first(self):
        m = self.make_map()
        bits = np.zeros(CELLS, dtype=np.uint8)
        set_byte(bits, 128, 0x01)
        r = enroll.challenge_to_response(m, 0, bits)
        assert r < 1 << 248
        assert r & 1 == 1 and r.bit_count() == 1

    def test_short_readout_rejected(self):
        m = self.make_map()
        with pytest.raises(ValueError):
            enroll.challenge_to_response(m, 1, np.zeros(64, dtype=np.uint8))

    def test_window_from_first_cell_matches_full_readout(self):
        m = self.make_map()
        bits = np.random.default_rng(0).integers(0, 2, CELLS, dtype=np.uint8)
        lo, hi = 8 * 200, 8 * 231
        window = enroll.challenge_to_response(m, 1, bits[lo:hi], first_cell=lo)
        assert window == enroll.challenge_to_response(m, 1, bits)

    @pytest.mark.parametrize("lo,hi", [(8 * 201, 8 * 231), (8 * 200, 8 * 230)])
    def test_window_missing_block_bytes_rejected(self, lo, hi):
        m = self.make_map()
        with pytest.raises(ValueError):
            enroll.challenge_to_response(m, 1, base_bits()[lo:hi], first_cell=lo)


@pytest.fixture(scope="module")
def enrolled():
    dev = puf.synth_device(seed=11)
    record = enroll.enroll_device(dev, device_id="tok-11")
    return dev, record


class TestFullPipeline:
    def test_yields_multiple_blocks(self, enrolled):
        _, record = enrolled
        assert len(record.crp_map) >= 2
        for block in record.crp_map.blocks:
            for a in block:
                assert ELIGIBLE_START <= a < ELIGIBLE_END

    def test_references_are_balanced(self, enrolled):
        _, record = enrolled
        for ref in record.references:
            assert ref < 1 << 248
            for j in range(31):
                assert ((ref >> (8 * j)) & 0xFF).bit_count() == 4

    def test_corner_ber_within_budget(self, enrolled):
        dev, record = enrolled
        ber = enroll.measure_pipeline_ber(dev, record, trials_per_temp=5)
        assert ber <= 0.0094

    def test_winnowing_beats_raw_corner_ber(self, enrolled):
        dev, record = enrolled
        lo, hi = 8 * ELIGIBLE_START, 8 * ELIGIBLE_END
        ref = puf.readout(dev, 25.0, 699_999)[lo:hi]
        trials = [
            puf.readout(dev, 0.0, 700_000 + i)[lo:hi] for i in range(5)
        ]
        raw = puf.ber(ref, trials)
        pipe = enroll.measure_pipeline_ber(
            dev, record, temperatures=[0.0], trials_per_temp=5,
            trial_seed_base=700_000,
        )
        assert pipe < raw

    def test_nominal_response_bias_near_half(self, enrolled):
        dev, record = enrolled
        ones = 0
        total = 0
        for trial in range(40):
            r = puf.readout(dev, 25.0, 900_000 + trial)
            for c in range(len(record.crp_map)):
                resp = enroll.challenge_to_response(record.crp_map, c, r)
                ones += resp.bit_count()
                total += enroll.BLOCK_BITS
        assert abs(ones / total - 0.5) < 0.005


class TestResponseBits:
    """The batch scorer reads every block as challenge_to_response does."""

    @staticmethod
    def as_bits(response):
        return [response >> j & 1 for j in range(enroll.BLOCK_BITS)]

    @pytest.mark.parametrize("temp", [0.0, 25.0, 40.0])
    def test_eligible_reads_agree_with_challenge_to_response(self, enrolled, temp):
        dev, record = enrolled
        lo = 8 * ELIGIBLE_START
        reads = enroll.eligible_reads(dev, [temp], 3, 600_000)
        got = enroll.response_bits(record.crp_map, reads, first_cell=lo)
        assert got.shape == (3, len(record.crp_map), enroll.BLOCK_BITS)
        for read, blocks in zip(reads, got):
            for c, bits in enumerate(blocks):
                want = enroll.challenge_to_response(record.crp_map, c, read.ravel(),
                                                    first_cell=lo)
                assert bits.tolist() == self.as_bits(want)

    def test_span_read_from_a_nonzero_first_cell(self, enrolled):
        """A read of only the mapped span, first block's first byte to the
        last block's last, as token_boot reads one block's span."""
        dev, record = enrolled
        blocks = record.crp_map.blocks
        lo, hi = 8 * blocks[0][0], 8 * (blocks[-1][-1] + 1)
        assert lo > 8 * ELIGIBLE_START
        span = puf.readout_cells(dev, 25.0, 600_100, lo, hi)
        got = enroll.response_bits(record.crp_map, span[None], first_cell=lo)
        for c, bits in enumerate(got[0]):
            want = enroll.challenge_to_response(record.crp_map, c, span, first_cell=lo)
            assert bits.tolist() == self.as_bits(want)
        for short in (span[None, 8:], span[None, :-8]):
            with pytest.raises(ValueError):
                enroll.response_bits(record.crp_map, short, first_cell=lo)


def test_device_short_of_the_eligible_region_rejected():
    dev = puf.synth_device(num_cells=8 * ELIGIBLE_END - 1, seed=0)
    with pytest.raises(enroll.InsufficientMaterialError, match="eligible region"):
        enroll.enroll_device(dev, "short")


class TestRecordSerialization:
    def test_text_is_line_oriented(self):
        dev = puf.synth_device(seed=3)
        record = enroll.enroll_device(dev, device_id="tok-3")
        text = enroll.record_to_text(record)
        assert text.startswith("device_id: tok-3\n")
        assert "block 0: start=" in text
        assert "ref 0: " in text


class TestPinnedOutputs:
    """Pinned outputs of one device: the enrollment recipe, the TRNG fold and
    the temperature anchors must not move them."""

    def test_record_text_and_efficiency(self):
        record = enroll.enroll_device(puf.synth_device(seed=11), "pin")
        text = enroll.record_to_text(record)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2c9702602298a471c8f41c0d633bbeb796b3e77cd1199ecbb0f35d6ce8c880b1"
        )
        assert enroll.efficiency(record.crp_map) == 0.11151079136690648

    def test_pipeline_ber(self):
        dev = puf.synth_device(seed=11)
        record = enroll.enroll_device(dev, "pin")
        assert enroll.measure_pipeline_ber(dev, record) == 0.002116935483870968

    def test_records_of_eight_devices(self):
        digest = hashlib.sha256()
        for seed in range(8):
            record = enroll.enroll_device(puf.synth_device(seed=seed), f"dev-{seed}")
            digest.update(enroll.record_to_text(record).encode())
        assert digest.hexdigest() == (
            "228d7f524d32b09c290fa3356e6f6fa824c1189d527e0aaf86b26fb3d955eb14"
        )

    def test_trng_bits(self):
        bits = puf.trng_next(puf.synth_device(seed=11), 128, trial_seed=5,
                             temperature=10.0)
        assert bits.dtype == np.uint8
        assert np.packbits(bits).tobytes().hex() == "05340bceb25600c71e0863765894b9b2"
