"""Simulated SRAM PUF: per-cell power-up model, dump ingestion, metrics.

Each cell carries a probability of powering up as 1. Temperature scales a
cell's flip probability (relative to its preferred value) by a
piecewise-linear factor anchored at 1.0 for 25 C and rising toward the
extremes. Readouts are deterministic given (device seed, trial seed).

The TRNG region at the SRAM base is populated from the device's noisy-cell
budget first, mirroring the provisioning step that places the entropy
source over metastable cells; a fully noiseless device therefore has a
degenerate (constant) TRNG.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layout import DEFAULT_LAYOUT

TEMP_MIN = -15.0
TEMP_MAX = 80.0

# (temperature C, flip-probability scale); linear between anchors
DEFAULT_TEMP_ANCHORS: tuple[tuple[float, float], ...] = (
    (-15.0, 5.0),
    (0.0, 2.5),
    (25.0, 1.0),
    (40.0, 2.5),
    (80.0, 9.0),
)

TRNG_FOLD = 16
TRNG_CELLS = DEFAULT_LAYOUT.trng_cells

DUMP_MAGIC = b"SPUF"
DUMP_VERSION = 1


class TemperatureRangeError(ValueError):
    pass


class InsufficientEntropyError(ValueError):
    pass


@dataclass(frozen=True)
class PufDevice:
    cell_one_prob: np.ndarray
    rng_seed: int

    def __post_init__(self) -> None:
        p = self.cell_one_prob
        if p.ndim != 1 or p.size == 0:
            raise ValueError("cell_one_prob must be a non-empty 1-D array")
        if ((p < 0) | (p > 1)).any():
            raise ValueError("cell probabilities must lie in [0, 1]")
        p.setflags(write=False)

    @property
    def num_cells(self) -> int:
        return self.cell_one_prob.size


@dataclass(frozen=True)
class DumpSet:
    """A characterization run: row i of bits was read at temperatures[i]."""

    device_id: int
    temperatures: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.ndim != 2 or self.bits.size == 0:
            raise ValueError("empty dump set")
        if len(self.temperatures) != len(self.bits):
            raise ValueError("temperature count differs from readout count")


def synth_device(
    num_cells: int = 16384,
    stable_frac: float = 0.86,
    noisy_epsilon: float = 0.001,
    bias: float = 0.5,
    seed: int = 0,
) -> PufDevice:
    """Synthesize a device.

    A stable_frac share of cells gets a one-probability of noisy_epsilon or
    1 - noisy_epsilon (split according to bias); the rest draw their
    one-probability uniformly. The uniform budget is spent on the TRNG
    region first.
    """
    for name, v in (("stable_frac", stable_frac), ("noisy_epsilon", noisy_epsilon),
                    ("bias", bias)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    rng = np.random.default_rng(seed)
    prob = np.empty(num_cells, dtype=np.float64)

    n_uniform = int(round((1.0 - stable_frac) * num_cells))
    region = min(TRNG_CELLS, num_cells)
    in_region = min(n_uniform, region)
    uniform_idx = np.arange(in_region)
    left_over = n_uniform - in_region
    if left_over > 0:
        rest = rng.choice(np.arange(region, num_cells), size=left_over, replace=False)
        uniform_idx = np.concatenate([uniform_idx, rest])

    stable_mask = np.ones(num_cells, dtype=bool)
    stable_mask[uniform_idx] = False
    n_stable = int(stable_mask.sum())
    leans_one = rng.random(n_stable) < bias
    prob[stable_mask] = np.where(leans_one, 1.0 - noisy_epsilon, noisy_epsilon)
    prob[uniform_idx] = rng.random(len(uniform_idx))
    return PufDevice(cell_one_prob=prob, rng_seed=seed)


def temp_scale(temperature: float) -> float:
    """Flip-probability scale at a temperature inside [TEMP_MIN, TEMP_MAX]."""
    if not TEMP_MIN <= temperature <= TEMP_MAX:
        raise TemperatureRangeError(
            f"temperature {temperature} outside model range [{TEMP_MIN}, {TEMP_MAX}]"
        )
    xs = [a[0] for a in DEFAULT_TEMP_ANCHORS]
    ys = [a[1] for a in DEFAULT_TEMP_ANCHORS]
    return float(np.interp(temperature, xs, ys))


def _temperature_probs(
    device: PufDevice, temperature: float, lo: int, hi: int
) -> np.ndarray:
    """One-probabilities of cells lo..hi-1 at the given temperature."""
    p = device.cell_one_prob[lo:hi]
    prefers_one = p >= 0.5
    flip = np.where(prefers_one, 1.0 - p, p)
    flip = np.minimum(flip * temp_scale(temperature), 0.5)
    return np.where(prefers_one, 1.0 - flip, flip)


def _trial_rng(device: PufDevice, trial_seed: int, temperature: float) -> np.random.Generator:
    temp_key = int(round(temperature * 100)) + 200_000
    return np.random.default_rng([device.rng_seed, trial_seed, temp_key])


def _sample(
    device: PufDevice, probs: np.ndarray, temperature: float, trial_seed: int, lo: int
) -> np.ndarray:
    """Power-up values of cells lo..lo+len(probs)-1 of one trial.

    PCG64 spends one 64-bit step per float64, so advancing the stream by
    lo steps skips exactly the draws of the cells below lo.
    """
    rng = _trial_rng(device, trial_seed, temperature)
    rng.bit_generator.advance(lo)
    return (rng.random(probs.size) < probs).astype(np.uint8)


def readout_cells(
    device: PufDevice, temperature: float, trial_seed: int, lo: int, hi: int
) -> np.ndarray:
    """Cells lo..hi-1 of a power-up sample; equal to readout(...)[lo:hi]."""
    if not 0 <= lo < hi <= device.num_cells:
        raise ValueError(f"cell range {lo}..{hi} outside 0..{device.num_cells}")
    probs = _temperature_probs(device, temperature, lo, hi)
    return _sample(device, probs, temperature, trial_seed, lo)


def readout(device: PufDevice, temperature: float, trial_seed: int) -> np.ndarray:
    """One full-array power-up sample at the given temperature."""
    return readout_cells(device, temperature, trial_seed, 0, device.num_cells)


def collect_dump(
    device: PufDevice,
    device_id: int,
    temperatures: Sequence[float],
    readouts_per_temp: int,
    trial_seed_base: int = 0,
) -> DumpSet:
    """Characterization run: repeated readouts at each temperature."""
    temps = np.repeat(np.asarray(temperatures, dtype=np.float64), readouts_per_temp)
    bits = [readout(device, t, trial_seed_base + i) for i, t in enumerate(temps.tolist())]
    return DumpSet(device_id=device_id, temperatures=temps, bits=np.array(bits))


# -------------------------------------------------------------------- metrics

def ber(reference: Sequence[int], trials: Sequence[Sequence[int]]) -> float:
    """Mean fractional Hamming distance of the trials from the reference."""
    ref = np.asarray(reference, dtype=np.uint8)
    if len(trials) == 0:
        raise ValueError("need at least one trial")
    arr = np.asarray(trials, dtype=np.uint8)
    if arr.shape[1:] != ref.shape:
        raise ValueError("trial length mismatch")
    return np.count_nonzero(arr != ref) / arr.size


def bias(readouts: Sequence[Sequence[int]]) -> float:
    """Empirical probability of 1 pooled over all bits of all readouts."""
    if len(readouts) == 0:
        raise ValueError("need at least one readout")
    arr = np.asarray(readouts, dtype=np.uint8)
    return int(arr.sum(dtype=np.int64)) / arr.size


# ----------------------------------------------------------------------- trng

def trng_next(
    device: PufDevice, nbits: int, trial_seed: int, temperature: float = 25.0
) -> np.ndarray:
    """Random bits from XOR-folded power-up values of the TRNG region.

    The region is the first TRNG_CELLS cells, or all cells of a smaller
    device. Each power cycle of it yields region_cells // TRNG_FOLD bits,
    one per TRNG_FOLD cells; the call draws fresh cycles until nbits are
    collected.
    """
    if not 0 < nbits <= 128:
        raise ValueError("nbits must be in 1..128")
    region = min(TRNG_CELLS, device.num_cells)
    if region < TRNG_FOLD:
        raise InsufficientEntropyError(
            f"TRNG region of {region} cells cannot feed a {TRNG_FOLD}-bit fold"
        )
    probs = _temperature_probs(device, temperature, 0, region)
    used = region // TRNG_FOLD * TRNG_FOLD
    out = np.empty(0, dtype=np.uint8)
    cycle = 0
    while out.size < nbits:
        cells = _sample(device, probs, temperature, trial_seed * 65536 + cycle, 0)
        folded = cells[:used].reshape(-1, TRNG_FOLD).sum(axis=1) % 2
        out = np.concatenate([out, folded.astype(np.uint8)])
        cycle += 1
    return out[:nbits]


# -------------------------------------------------------------------- dump IO

def write_dump(path: str, dump: DumpSet) -> None:
    """Binary layout: magic, version u8, device id u32, cell count u32,
    readout count u16, then per readout a centi-degree i16 and the packed
    bits (LSB-first within each byte). Integers little-endian.
    """
    count, cells = dump.bits.shape
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        fh.write(struct.pack("<BIIH", DUMP_VERSION, dump.device_id, cells, count))
        for temperature, row in zip(dump.temperatures, dump.bits):
            fh.write(struct.pack("<h", int(round(temperature * 100))))
            fh.write(np.packbits(row, bitorder="little").tobytes())


def read_dump(path: str) -> DumpSet:
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)

    def take(nbytes: int, what: str) -> bytes:
        chunk = buf.read(nbytes)
        if len(chunk) != nbytes:
            raise ValueError(f"truncated dump: {what} needs {nbytes} bytes, "
                             f"{len(chunk)} left")
        return chunk

    if buf.read(4) != DUMP_MAGIC:
        raise ValueError("not a dump file (bad magic)")
    version, device_id, cells, count = struct.unpack("<BIIH", take(11, "header"))
    if version != DUMP_VERSION:
        raise ValueError(f"unsupported dump version {version}")
    nbytes = (cells + 7) // 8
    centis, rows = [], []
    # each row's bytes are checked before it is kept: the header's sizes are
    # untrusted, so nothing is allocated from them up front
    for i in range(count):
        (centi,) = struct.unpack("<h", take(2, f"readout {i} temperature"))
        packed = np.frombuffer(take(nbytes, f"readout {i} bits"), dtype=np.uint8)
        centis.append(centi)
        rows.append(np.unpackbits(packed, bitorder="little")[:cells])
    if buf.read(1):
        raise ValueError("trailing bytes after last readout")
    return DumpSet(device_id=device_id, temperatures=np.array(centis) / 100.0,
                   bits=np.array(rows, dtype=np.uint8).reshape(count, cells))


def device_from_dump(dump: DumpSet, seed: int = 0) -> PufDevice:
    """Fit a per-cell one-probability model at 25 C to recorded readouts.

    A cell's flip frequency, pooled over all readouts, is divided by the
    mean temp_scale of the readouts' temperatures, so the fitted device
    flips at the dump's temperatures about as often as the source did. A
    cell the dump never saw flip is treated as deterministic, so a noiseless
    dump yields a noiseless device. A readout outside [TEMP_MIN, TEMP_MAX]
    raises TemperatureRangeError.
    """
    freq = dump.bits.sum(axis=0, dtype=np.int64) / len(dump.bits)
    scale = np.mean([temp_scale(t) for t in dump.temperatures])
    prefers_one = freq >= 0.5
    flip = np.where(prefers_one, 1.0 - freq, freq) / scale
    prob = np.where(prefers_one, 1.0 - flip, flip)
    return PufDevice(cell_one_prob=prob, rng_seed=seed)
