"""Succinct container for compression-setting PLAs.

Points are (position, value): X is the position axis and Y the value
axis, so B holds the last covered value y'_i of each non-final segment.
Non-final segments cover at least 2 positions, so X shifts its first
positions by 1 per segment.  The layout is in container.py.
"""

from __future__ import annotations

from .container import (
    ENVELOPE_BYTES,
    N_COMPONENTS,
    PlaContainer,
    unpack_components,
    unpack_envelope,
)
from .pla import COMPRESSION


class CompressedPlaC(PlaContainer):
    """Compression-setting container: predicts a value from a position."""

    __slots__ = ()

    MAGIC = b"PLAC"
    SETTING = COMPRESSION
    VALUE_AXIS = "y"
    B_BIAS = 0
    GAMMA_LAST = False

    @staticmethod
    def shifts(epsilon):
        return 1, 0

    @staticmethod
    def check_segments(segs, n, u, epsilon):
        if segs[0].first_x != 1:
            raise ValueError("first segment must start at position 1")
        for i in range(len(segs) - 1):
            if segs[i + 1].first_x - segs[i].first_x < 2:
                raise ValueError("non-final segments must cover at least 2 positions")
            if segs[i + 1].first_x != segs[i].last_x + 1:
                raise ValueError("segments must partition the position axis")
        if segs[-1].last_x != n or segs[-1].last_y != u:
            raise ValueError("last segment must end at position n / value u")

    def range_error(self, x):
        return f"position {x} out of range [1, {self.n}]"

    @classmethod
    def from_bytes(cls, data) -> "CompressedPlaC":
        mode, header = unpack_envelope(cls.MAGIC, data)
        return cls.from_parts(mode, header, unpack_components(data, ENVELOPE_BYTES, N_COMPONENTS))


encode_c = CompressedPlaC.from_pla
