"""PUF model, metrics, TRNG, and dump-file tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfidsim import puf
from crfidsim.layout import DEFAULT_LAYOUT


def noiseless_device(seed=0):
    return puf.synth_device(stable_frac=1.0, noisy_epsilon=0.0, seed=seed)


def test_layout_eligible_bits():
    assert DEFAULT_LAYOUT.eligible_bits == 8896
    assert DEFAULT_LAYOUT.eligible_bytes == 1112
    assert DEFAULT_LAYOUT.trng_cells == 1024


def test_synth_device_deterministic():
    a = puf.synth_device(seed=5)
    b = puf.synth_device(seed=5)
    assert np.array_equal(a.cell_one_prob, b.cell_one_prob)
    c = puf.synth_device(seed=6)
    assert not np.array_equal(a.cell_one_prob, c.cell_one_prob)


def test_synth_device_rejects_bad_fractions():
    with pytest.raises(ValueError):
        puf.synth_device(stable_frac=1.5)
    with pytest.raises(ValueError):
        puf.synth_device(noisy_epsilon=-0.1)


@pytest.mark.parametrize("prob", [np.array([]), np.full((2, 4), 0.5),
                                  np.array([0.5, 1.5]), np.array([-0.1])])
def test_device_rejects_bad_probabilities(prob):
    with pytest.raises(ValueError):
        puf.PufDevice(cell_one_prob=prob, rng_seed=0)


def test_num_cells_is_the_probability_count():
    assert puf.synth_device(seed=1, num_cells=100).num_cells == 100


def test_readout_deterministic_under_seeds():
    dev = puf.synth_device(seed=1)
    r1 = puf.readout(dev, 25.0, trial_seed=10)
    r2 = puf.readout(dev, 25.0, trial_seed=10)
    r3 = puf.readout(dev, 25.0, trial_seed=11)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)


def test_noiseless_device_identical_readouts():
    dev = noiseless_device()
    r1 = puf.readout(dev, 25.0, trial_seed=0)
    r2 = puf.readout(dev, 40.0, trial_seed=99)
    assert np.array_equal(r1, r2)


def test_readout_temperature_range():
    dev = puf.synth_device(seed=2)
    with pytest.raises(puf.TemperatureRangeError):
        puf.readout(dev, -40.0, trial_seed=0)
    with pytest.raises(puf.TemperatureRangeError):
        puf.readout(dev, 95.0, trial_seed=0)


@given(
    device_seed=st.integers(0, 2**32 - 1),
    temperature=st.floats(puf.TEMP_MIN, puf.TEMP_MAX),
    trial_seed=st.integers(0, 2**40),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_readout_cells_equals_readout_window(device_seed, temperature, trial_seed, data):
    dev = puf.synth_device(seed=device_seed, num_cells=2048)
    lo = data.draw(st.integers(0, dev.num_cells - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, dev.num_cells), label="hi")
    full = puf.readout(dev, temperature, trial_seed)
    window = puf.readout_cells(dev, temperature, trial_seed, lo, hi)
    assert window.dtype == full.dtype
    assert np.array_equal(window, full[lo:hi])


def test_readout_cells_full_size_device_window():
    dev = puf.synth_device(seed=12)
    full = puf.readout(dev, 33.3, trial_seed=77)
    lo, hi = 8 * 300, 8 * 611
    assert np.array_equal(puf.readout_cells(dev, 33.3, 77, lo, hi), full[lo:hi])


@pytest.mark.parametrize("lo,hi", [(5, 5), (0, 0), (9, 3), (-1, 10), (-8, -2),
                                   (0, 513), (512, 513), (600, 700)])
def test_readout_cells_rejects_bad_range(lo, hi):
    dev = puf.synth_device(seed=13, num_cells=512)
    with pytest.raises(ValueError):
        puf.readout_cells(dev, 25.0, 0, lo, hi)


def test_readout_cells_temperature_range():
    dev = puf.synth_device(seed=2)
    with pytest.raises(puf.TemperatureRangeError):
        puf.readout_cells(dev, 95.0, 0, 0, 8)


def test_temp_scale_nominal_is_one():
    assert puf.temp_scale(25.0) == 1.0
    assert puf.temp_scale(0.0) > 1.0
    assert puf.temp_scale(80.0) > puf.temp_scale(40.0)


def test_flip_rate_nondecreasing_away_from_nominal():
    dev = puf.synth_device(seed=4)
    ref = puf.readout(dev, 25.0, trial_seed=0)
    rates = []
    for temp in (25.0, 40.0, 0.0, -15.0, 80.0):  # ordered by flip scale
        trials = [puf.readout(dev, temp, trial_seed=100 + i) for i in range(5)]
        rates.append(puf.ber(ref, trials))
    assert all(a <= b + 1e-3 for a, b in zip(rates, rates[1:]))


def test_ber_trivial_cases():
    ref = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
    assert puf.ber(ref, [ref, ref.copy()]) == 0.0
    trial = ref.copy()
    trial[0] ^= 1
    assert puf.ber(ref, [trial]) == pytest.approx(0.125)


def test_ber_validation():
    ref = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ValueError):
        puf.ber(ref, [])
    with pytest.raises(ValueError):
        puf.ber(ref, [np.zeros(9, dtype=np.uint8)])


def test_ber_matches_injected_noise_level():
    # flat device: every cell flips with probability 0.01 at nominal temp
    dev = puf.synth_device(stable_frac=1.0, noisy_epsilon=0.01, seed=9)
    ref = np.where(dev.cell_one_prob > 0.5, 1, 0).astype(np.uint8)
    trials = [puf.readout(dev, 25.0, trial_seed=i) for i in range(10)]
    measured = puf.ber(ref, trials)
    assert measured == pytest.approx(0.01, abs=0.002)


def test_bias_trivial_cases():
    assert puf.bias([np.ones(16, dtype=np.uint8)]) == 1.0
    assert puf.bias([np.array([0, 1] * 8, dtype=np.uint8)]) == 0.5
    with pytest.raises(ValueError):
        puf.bias([])


def test_raw_device_bias_near_half():
    dev = puf.synth_device(seed=12)
    reads = [puf.readout(dev, 25.0, trial_seed=i) for i in range(5)]
    assert puf.bias(reads) == pytest.approx(0.4999, abs=0.01)


def test_trng_output_shape_and_determinism():
    dev = puf.synth_device(seed=20)
    a = puf.trng_next(dev, 128, trial_seed=1)
    b = puf.trng_next(dev, 128, trial_seed=1)
    c = puf.trng_next(dev, 128, trial_seed=2)
    assert a.shape == (128,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert puf.trng_next(dev, 8, trial_seed=1).shape == (8,)


def test_trng_nbits_bounds():
    dev = puf.synth_device(seed=21)
    with pytest.raises(ValueError):
        puf.trng_next(dev, 0, trial_seed=0)
    with pytest.raises(ValueError):
        puf.trng_next(dev, 129, trial_seed=0)


def test_trng_insufficient_region():
    dev = puf.synth_device(seed=22, num_cells=8)
    with pytest.raises(puf.InsufficientEntropyError):
        puf.trng_next(dev, 8, trial_seed=0)


def test_trng_insufficient_region_from_dump():
    dump = puf.collect_dump(puf.synth_device(seed=22, num_cells=15), device_id=1,
                            temperatures=[25.0], readouts_per_temp=3)
    dev = puf.device_from_dump(dump)
    with pytest.raises(puf.InsufficientEntropyError):
        puf.trng_next(dev, 8, trial_seed=0)


def test_trng_small_device_folds_its_whole_array():
    dev = puf.synth_device(seed=22, num_cells=64)
    assert puf.TRNG_CELLS == DEFAULT_LAYOUT.trng_cells
    assert puf.trng_next(dev, 10, trial_seed=0).shape == (10,)   # 3 cycles of 4


def test_trng_monobit_within_3_sigma():
    dev = puf.synth_device(seed=23)
    total_bits = 128 * 250
    ones = 0
    for i in range(250):
        ones += int(puf.trng_next(dev, 128, trial_seed=i).sum())
    freq = ones / total_bits
    sigma = (0.25 / total_bits) ** 0.5
    assert abs(freq - 0.5) < 3 * sigma


def test_trng_noiseless_device_gives_constant_output():
    dev = noiseless_device()
    a = puf.trng_next(dev, 64, trial_seed=0)
    b = puf.trng_next(dev, 64, trial_seed=999)
    assert np.array_equal(a, b)


def test_dump_roundtrip_bit_identical(tmp_path):
    dev = puf.synth_device(seed=30, num_cells=512)
    dump = puf.collect_dump(dev, device_id=7, temperatures=[0.0, 25.0, 40.0],
                            readouts_per_temp=3)
    path = tmp_path / "dev7.spuf"
    puf.write_dump(str(path), dump)
    back = puf.read_dump(str(path))
    assert back.device_id == 7
    assert back.bits.shape == (9, 512)
    assert back.temperatures == pytest.approx(dump.temperatures, abs=0.005)
    assert np.array_equal(dump.bits, back.bits)


@pytest.mark.parametrize("temperatures,shape", [
    ([], (0, 8)), ([25.0], (1, 0)), ([25.0], (8,)), ([25.0, 0.0], (1, 8)),
])
def test_dump_set_rejects_empty_or_misshapen(temperatures, shape):
    with pytest.raises(ValueError):
        puf.DumpSet(1, np.array(temperatures), np.zeros(shape, dtype=np.uint8))


def test_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.spuf"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        puf.read_dump(str(path))


def test_dump_rejects_trailing_bytes(tmp_path):
    dev = puf.synth_device(seed=31, num_cells=64)
    dump = puf.collect_dump(dev, device_id=1, temperatures=[25.0], readouts_per_temp=1)
    path = tmp_path / "t.spuf"
    puf.write_dump(str(path), dump)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError):
        puf.read_dump(str(path))


def test_dump_truncated_at_every_offset_rejected(tmp_path):
    dev = puf.synth_device(seed=32, num_cells=60)
    dump = puf.collect_dump(dev, device_id=4, temperatures=[0.0, 25.0],
                            readouts_per_temp=1)
    path = tmp_path / "full.spuf"
    puf.write_dump(str(path), dump)
    data = path.read_bytes()
    assert len(data) == 4 + 11 + 2 * (2 + 8)
    cut = tmp_path / "cut.spuf"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValueError):
            puf.read_dump(str(cut))


def test_device_from_dump_reproduces_stable_cells():
    dev = puf.synth_device(seed=33, num_cells=512, stable_frac=1.0,
                           noisy_epsilon=0.0)
    dump = puf.collect_dump(dev, device_id=2, temperatures=[25.0],
                            readouts_per_temp=100)
    fitted = puf.device_from_dump(dump, seed=1)
    want = puf.readout(dev, 25.0, trial_seed=0)
    got = puf.readout(fitted, 25.0, trial_seed=50)
    # a flip-free dump reproduces the cells exactly
    assert float(np.mean(want != got)) == 0.0


def test_device_from_dump_matches_source_flip_rates():
    """A device fitted from a multi-temperature dump flips, at each dump
    temperature, as often as its source: the fit is the 25 C flip
    probability, which readouts scale by temp_scale again."""
    src = puf.synth_device(seed=11)
    dump = puf.collect_dump(src, 1, temperatures=(0.0, 25.0, 40.0), readouts_per_temp=20)
    fitted = puf.device_from_dump(dump, seed=11)
    p = src.cell_one_prob
    stable = (p <= 0.001) | (p >= 0.999)
    preferred = (p >= 0.5)[stable]

    def flip_rate(dev, temperature):
        return np.mean([puf.readout(dev, temperature, 1000 + i)[stable] != preferred
                        for i in range(40)])

    for temperature in (0.0, 25.0, 40.0):
        want = flip_rate(src, temperature)
        assert abs(flip_rate(fitted, temperature) / want - 1) < 0.15, temperature


def test_device_from_dump_rejects_temperature_outside_model_range():
    bits = np.zeros(64, dtype=np.uint8)
    for temperature in (puf.TEMP_MIN - 1, puf.TEMP_MAX + 1):
        dump = puf.DumpSet(1, np.array([25.0, temperature]), np.stack([bits, bits]))
        with pytest.raises(puf.TemperatureRangeError):
            puf.device_from_dump(dump)
