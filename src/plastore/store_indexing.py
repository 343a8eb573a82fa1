"""Succinct container for indexing-setting PLAs.

Points are (key, position): X is the value axis and Y the position axis,
so B holds the last covered key x'_i of each non-final segment.
Non-final segments span at least 2e keys and cover at least 2e points,
so both axes shift their first coordinates by 2e - 1 per segment; the
shifts use the construction error e, the delta widths the verified
post-rounding error.  The last entry of delta_gamma, gamma_l against n
(the last key's position, which gamma_l predicts exactly), is reported
as its own `gamma_last` component.  The layout is in container.py.
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
from .pla import INDEXING


class CompressedPlaI(PlaContainer):
    """Indexing-setting container: predicts a position from a key."""

    __slots__ = ()

    MAGIC = b"PLAI"
    SETTING = INDEXING
    VALUE_AXIS = "x"
    B_BIAS = 1
    GAMMA_LAST = True

    @staticmethod
    def shifts(epsilon):
        return 2 * epsilon - 1, 2 * epsilon - 1

    @staticmethod
    def check_segments(fx, lx, fy, ly, n, u, epsilon):
        check_pairs([("non-final segments must span at least 2*epsilon keys",
                      list(map(lt, map(sub, fx[1:], fx), repeat(2 * epsilon)))),
                     ("non-final segments must cover at least 2*epsilon points",
                      list(map(lt, map(sub, fy[1:], fy), repeat(2 * epsilon)))),
                     ("segments must partition the position axis",
                      list(map(ne, map(sub, fy[1:], ly), repeat(1))))])
        if fy[0] != 1 or ly[-1] != n or lx[-1] != u:
            raise ValueError("segments must cover positions 1..n and end at key u")

    def range_error(self, x):
        if x > self.u:
            return f"key {x} exceeds universe {self.u}"
        return f"key {x} precedes the first segment"

    @classmethod
    def from_bytes(cls, data) -> "CompressedPlaI":
        mode, header = unpack_envelope(cls.MAGIC, data)
        return cls.from_parts(mode, header, unpack_components(data, ENVELOPE_BYTES, N_COMPONENTS))


encode_i = CompressedPlaI.from_pla
