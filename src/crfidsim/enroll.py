"""Enrollment pipeline: stability screening, de-biasing, CRP-block map.

Selection happens at byte granularity. A byte survives screening only if
every one of its bits reads identically across all corner-temperature
readouts; its reference value is the per-bit majority over nominal-
temperature readouts (any tie discards the byte). De-biasing then keeps
only bytes whose reference has Hamming weight 4, and the survivors are
packed, in address order, into blocks of 31 bytes. A block resolves a
challenge to 248 response bits (byte order ascending, LSB-first bits),
held as an int whose bit i is response bit i.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import puf
from .layout import DEFAULT_LAYOUT

BLOCK_BYTES = 31
BLOCK_BITS = 8 * BLOCK_BYTES

DEFAULT_CORNER_TEMPS = (0.0, 40.0)
NOMINAL_TEMP = 25.0

# Enrollment recipe: readouts taken per temperature and the trial seeds of
# the characterization run
CORNER_READOUTS = 5
NOMINAL_READOUTS = 11
TRIAL_SEED_BASE = 10_000

ELIGIBLE_START = DEFAULT_LAYOUT.eligible_start
ELIGIBLE_BYTES = DEFAULT_LAYOUT.eligible_bytes
# Cells of the eligible region, the only cells enrollment samples
ELIGIBLE_CELLS = (8 * ELIGIBLE_START, 8 * (ELIGIBLE_START + ELIGIBLE_BYTES))


class InsufficientMaterialError(ValueError):
    """Not enough material for even one CRP block: no byte survived a
    selection stage, too few winnowed bytes, or readouts that do not cover
    the eligible region."""


@dataclass(frozen=True)
class CrpBlockMap:
    blocks: tuple[tuple[int, ...], ...]    # each block's ascending byte addresses

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def cells(self) -> np.ndarray:
        """Each block's cells in response-bit order, (blocks, BLOCK_BITS):
        bytes in address order, bits LSB-first within a byte."""
        return (8 * np.array(self.blocks)[:, :, None] + np.arange(8)).reshape(len(self), -1)

    def cells_for_challenge(self, c: int) -> np.ndarray:
        return self.cells[c % len(self)]


@dataclass
class EnrollmentRecord:
    device_id: str
    crp_map: CrpBlockMap
    references: tuple[int, ...]    # 248-bit response per block

    def reference_for_challenge(self, c: int) -> int:
        return self.references[c % len(self.crp_map)]


def pre_select(corner: np.ndarray, nominal: np.ndarray) -> dict[int, int]:
    """Keep bytes that are bit-stable at every corner; majority-vote values.

    Both arguments hold eligible-region readouts of shape (reads,
    ELIGIBLE_BYTES, 8). A per-bit tie in the nominal vote discards the
    whole byte. Returns address -> value in ascending address order.
    """
    stable = (corner == corner[0]).all(axis=(0, 2))

    ones = nominal.sum(axis=0, dtype=np.int64)
    majority = (2 * ones > len(nominal)).astype(np.uint8)
    tie = (2 * ones == len(nominal)).any(axis=1)

    keep = stable & ~tie
    if not keep.any():
        raise InsufficientMaterialError("no byte survived stability screening")
    idx = np.flatnonzero(keep)
    weights = 1 << np.arange(8)  # LSB-first bit order within a byte
    values = (majority[idx] * weights).sum(axis=1)
    return dict(zip((ELIGIBLE_START + idx).tolist(), values.tolist()))


def debias(stable: dict[int, int]) -> dict[int, int]:
    """Retain bytes whose reference value is Hamming-weight balanced (4 of 8)."""
    kept = {a: v for a, v in stable.items() if v.bit_count() == 4}
    if not kept:
        raise InsufficientMaterialError("no byte survived de-biasing")
    return kept


def build_map(addresses: Sequence[int]) -> CrpBlockMap:
    """Greedily pack consecutive winnowed addresses into fixed-size blocks."""
    if len(addresses) < BLOCK_BYTES:
        raise InsufficientMaterialError(
            f"inadequate key material: {len(addresses)} bytes < one {BLOCK_BYTES}-byte block"
        )
    return CrpBlockMap(blocks=tuple(
        tuple(addresses[i * BLOCK_BYTES : (i + 1) * BLOCK_BYTES])
        for i in range(len(addresses) // BLOCK_BYTES)
    ))


def efficiency(crp_map: CrpBlockMap) -> float:
    """Fraction of the eligible region turned into usable response bits."""
    return len(crp_map) * BLOCK_BITS / DEFAULT_LAYOUT.eligible_bits


def _gather(bits: np.ndarray, cells: np.ndarray, first_cell: int) -> np.ndarray:
    """bits[..., cells], where the last axis of bits holds the cells from first_cell on."""
    cells = cells - first_cell
    if cells.min() < 0 or cells.max() >= bits.shape[-1]:
        raise ValueError("readout does not cover the mapped region")
    return bits[..., cells]


def challenge_to_response(
    crp_map: CrpBlockMap, c: int, readout_bits: np.ndarray, first_cell: int = 0
) -> int:
    """Resolve a challenge to its block's 248 response bits.

    The block index is c modulo the block count, and bit j is that block's
    cell j (CrpBlockMap.cells). readout_bits holds the cells from
    first_cell on, so a partial readout of the block's span will do.
    """
    bits = _gather(np.asarray(readout_bits), crp_map.cells_for_challenge(c), first_cell)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def response_bits(crp_map: CrpBlockMap, reads: np.ndarray, first_cell: int = 0) -> np.ndarray:
    """Every block's response bits in every read, (reads, blocks, BLOCK_BITS):
    each row of reads, flat or (bytes, 8), holds the cells from first_cell on."""
    return _gather(np.asarray(reads).reshape(len(reads), -1), crp_map.cells, first_cell)


def build_record(device_id: str, winnowed: dict[int, int], crp_map: CrpBlockMap) -> EnrollmentRecord:
    references = tuple(int.from_bytes(bytes(winnowed[a] for a in block), "little")
                       for block in crp_map.blocks)
    return EnrollmentRecord(device_id=device_id, crp_map=crp_map, references=references)


def eligible_reads(
    device: puf.PufDevice, temperatures: Sequence[float], per_temp: int, trial_seed_base: int
) -> np.ndarray:
    """Eligible-region readouts, per_temp at each temperature in turn and
    trial seeds counting up from trial_seed_base: (reads, bytes, 8)."""
    temps = [t for t in temperatures for _ in range(per_temp)]
    return np.stack([puf.readout_cells(device, t, trial_seed_base + i, *ELIGIBLE_CELLS)
                     for i, t in enumerate(temps)]).reshape(len(temps), ELIGIBLE_BYTES, 8)


def enroll_device(device: puf.PufDevice, device_id: str) -> EnrollmentRecord:
    """Full pipeline against a live device model."""
    if device.num_cells < ELIGIBLE_CELLS[1]:
        raise InsufficientMaterialError("readout does not cover the eligible region")
    corners = eligible_reads(device, DEFAULT_CORNER_TEMPS, CORNER_READOUTS, TRIAL_SEED_BASE)
    nominal = eligible_reads(device, [NOMINAL_TEMP], NOMINAL_READOUTS,
                              TRIAL_SEED_BASE + 1000)
    winnowed = debias(pre_select(corners, nominal))
    crp_map = build_map(tuple(winnowed))
    return build_record(device_id, winnowed, crp_map)


def measure_pipeline_ber(device: puf.PufDevice, record: EnrollmentRecord,
                         temperatures: Sequence[float] = DEFAULT_CORNER_TEMPS,
                         trials_per_temp: int = 5, trial_seed_base: int = 500_000) -> float:
    """Pooled regeneration BER of all mapped bytes against the references."""
    reads = eligible_reads(device, temperatures, trials_per_temp, trial_seed_base)
    got = response_bits(record.crp_map, reads, first_cell=ELIGIBLE_CELLS[0])
    refs = np.array([[r >> j & 1 for j in range(BLOCK_BITS)] for r in record.references])
    return np.count_nonzero(got != refs) / got.size


# -------------------------------------------------------------- persistence

# The recipe every record was enrolled under, stated in each record file
RECIPE_LINES = {
    "corner_temps": ",".join(str(t) for t in DEFAULT_CORNER_TEMPS),
    "nominal_temp": str(NOMINAL_TEMP),
    "corner_readouts": str(CORNER_READOUTS),
    "nominal_readouts": str(NOMINAL_READOUTS),
    "block_bytes": str(BLOCK_BYTES),
}


def record_to_text(record: EnrollmentRecord) -> str:
    lines = [f"device_id: {record.device_id}"]
    lines += [f"{key}: {value}" for key, value in RECIPE_LINES.items()]
    lines.append(f"blocks: {len(record.crp_map)}")
    for i, block in enumerate(record.crp_map.blocks):
        offs = ",".join(str(a - block[0]) for a in block)
        lines.append(f"block {i}: start={block[0]} offsets={offs}")
    for i, ref in enumerate(record.references):
        raw = ref.to_bytes(BLOCK_BYTES, "little")
        lines.append(f"ref {i}: {base64.b64encode(raw).decode()}")
    return "\n".join(lines) + "\n"
