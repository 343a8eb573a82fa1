"""Succinct container for compression-setting PLAs.

Points are (position, value): X is the position axis and Y the value
axis, so B holds the last covered value y'_i of each non-final segment.
Non-final segments cover at least 2 positions, so X shifts its first
positions by 1 per segment.  The layout is in container.py.
"""

from __future__ import annotations

from itertools import repeat
from operator import lt, ne, sub

from .container import (
    ENVELOPE_BYTES,
    N_COMPONENTS,
    PlaContainer,
    check_pairs,
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
    def check_segments(fx, lx, fy, ly, n, u, epsilon):
        if fx[0] != 1:
            raise ValueError("first segment must start at position 1")
        check_pairs([("non-final segments must cover at least 2 positions",
                      list(map(lt, map(sub, fx[1:], fx), repeat(2)))),
                     ("segments must partition the position axis",
                      list(map(ne, map(sub, fx[1:], lx), repeat(1))))])
        if lx[-1] != n or ly[-1] != u:
            raise ValueError("last segment must end at position n / value u")

    def range_error(self, x):
        return f"position {x} out of range [1, {self.n}]"

    @classmethod
    def from_bytes(cls, data) -> "CompressedPlaC":
        mode, header = unpack_envelope(cls.MAGIC, data)
        return cls.from_parts(mode, header, unpack_components(data, ENVELOPE_BYTES, N_COMPONENTS))


encode_c = CompressedPlaC.from_pla
