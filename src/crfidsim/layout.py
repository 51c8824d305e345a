"""On-device memory arrangement shared by enrollment and the token model.

The 2 KB SRAM splits into a TRNG region at the base, the PUF-eligible
region above it, then statics, with the stack at the top. The reserved
regions leave 8,896 bits eligible for enrollment. The 63 KB NVM holds the
immutable 4 KB bootloader, the 8 KB application area, and the 8 KB staging
(download) area that firmware chunks are written into before verification.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryLayout:
    sram_bytes: int = 2048
    trng_words: int = 64          # 16-bit words at the SRAM base
    static_bytes: int = 552
    stack_bytes: int = 256
    app_bytes: int = 8192
    download_bytes: int = 8192

    @property
    def trng_bytes(self) -> int:
        return 2 * self.trng_words

    @property
    def trng_cells(self) -> int:
        return 8 * self.trng_bytes

    @property
    def eligible_start(self) -> int:
        """First PUF-eligible byte address (directly above the TRNG region)."""
        return self.trng_bytes

    @property
    def eligible_bytes(self) -> int:
        return self.sram_bytes - self.trng_bytes - self.static_bytes - self.stack_bytes

    @property
    def eligible_bits(self) -> int:
        return 8 * self.eligible_bytes

    def __post_init__(self) -> None:
        if self.eligible_bytes <= 0:
            raise ValueError("reserved regions exceed SRAM size")


DEFAULT_LAYOUT = MemoryLayout()

# Appendix-style accounting: 16,384 - 2,048 - 5,440 = 8,896
assert DEFAULT_LAYOUT.eligible_bits == 8896
