"""The PLA container shared by both settings, and its plumbing:
signed-delta packing, sampled offsets of the variable-width B fields,
size accounting, query instrumentation, and the file envelope.

A PLA is a list of segments over points (x, y).  One axis is the *value
axis*, which holds the sequence values and ends at u (Y in compression,
X in indexing); the other is the *position axis*, which holds the ranks
1..n.  Segment i covers x_i..x'_i and y_i..y'_i and stores the integer
anchors beta_i (at x_i) and gamma_i (at x'_i).  The container keeps six
components:

* X, Y -- the first coordinates c_1 <= ... <= c_l of each axis, as the
  Elias-Fano sequence of c_i - shift*(i-1) - skip for i > skip.  The
  position axis has skip = 1: its c_1 = 1 is implicit.  In rs mode X is
  instead a bitvector with a one at c_i - 1 - skip for i > skip and a
  rank directory, so the covering segment is one rank;
* B -- the last value-axis coordinate v'_i of each non-final segment, as
  v'_i - v_i - b in bit_length(v_{i+1} - v_i - 2b) bits, concatenated;
  v'_l = u is implicit.  On the position axis p'_i = p_{i+1} - 1 and
  p'_l = n, so nothing is stored for it;
* P -- the absolute start offset of every 8th B field (FieldOffsets),
  which load checks against the offsets it rebuilds from the value axis;
* delta_beta, delta_gamma -- w_delta-bit zig-zag deltas of beta_i against
  y_i and of gamma_i against y'_i, where w_delta fits 2*epsilon_eff.

Each setting supplies its axis rule (a PlaContainer subclass):

    setting      magic  value axis  position shift  value shift  b  rs bitvector length
    compression  PLAC   Y           1               0            0  n - 1, derived
    indexing     PLAI   X           2e - 1          2e - 1       1  max(u - 2e + 1, x_l), stored

File layout (format version 2): magic (4 bytes) | version u8 | mode u8 |
n, u, ell, epsilon, epsilon_eff, w_delta as little-endian u64 | the six
components X, Y, B, P, delta_beta, delta_gamma, each prefixed by its
length as a u32.  Components are stored in raw form: every length that
can be derived from the header is omitted from the payload, and so is
every value the other components determine (the first select sample of a
directory, the offsets of the B fields between samples, the total length
of B).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import accumulate, count, repeat
from operator import itemgetter, sub

import numpy as np

from .errors import FormatError
from .pla import Segment, interpolate
from .succinct import (BitVector, EliasFano, PackedIntArray, RankSelectIndex, Stored, bit_lengths, pack_fields,
                        read_words, unpack_fields)

FORMAT_VERSION = 2

# P keeps the absolute offset of every OFFSET_SAMPLE_RATE-th B field.
OFFSET_SAMPLE_RATE = 8
_BIAS_LIMIT = 1 << 62  # load sums the B widths in int64 only for a smaller bias

MODE_EF = "ef"
MODE_RS = "rs"
_MODE_CODE = {MODE_EF: 0, MODE_RS: 1}
_MODE_NAME = {0: MODE_EF, 1: MODE_RS}

ENVELOPE_FMT = "<4sBB6Q"
ENVELOPE_BYTES = struct.calcsize(ENVELOPE_FMT)
N_COMPONENTS = 6


def zigzag(d: int) -> int:
    """Fold a signed delta into an unsigned code (sign in the low bit)."""
    return (d << 1) if d >= 0 else ((-d << 1) - 1)


def unzigzag(z: int) -> int:
    return (z >> 1) if (z & 1) == 0 else -((z + 1) >> 1)


def check_pairs(rules):
    """Raise the message of the first rule broken, checking the pairs of
    consecutive segments in order and each pair's rules in the order
    listed: `rules` is a list of (message, broken), where broken[i] is
    true if segment pair i breaks the rule."""
    if any(any(broken) for _, broken in rules):
        broken = np.array([b for _, b in rules], dtype=bool)
        i = int(broken.any(axis=0).argmax())  # the first pair that breaks a rule
        raise ValueError(rules[int(broken[:, i].argmax())][0])


class FieldOffsets(Stored):
    """Start offsets of the ell - 1 variable-width B fields.

    Field i (1-indexed) is bit_length(c_{i+1} - c_i - bias) bits wide,
    where c is a coordinate sequence the store keeps (first values in
    compression; first keys, in the form X stores them, in indexing) and
    `bias` turns its gaps into field widths, so each offset is a prefix
    sum of widths the coordinates already fix.  Only the absolute offset
    of field i for i = 1 (mod k), 1 < i < ell, is stored, packed in
    bit_length(|B|) bits each; field 1 starts at 0 and the sentinel |B|
    closes the last block.  Load rebuilds every offset from all ell
    coordinates, takes |B| as their sum and refuses a stored offset that
    differs from the rebuilt one.  A field's offset is the nearer of its
    block's two bounding offsets, plus or minus the widths of the fields
    in between, read from one run of coordinates (`coords(start, count)`:
    one select, then a forward scan).

    `n_values` and `select(i)` (i <= ell, with select(ell) == |B|) read it
    like an Elias-Fano sequence of the offsets and the sentinel.
    """

    __slots__ = ("n_values", "total", "samples", "coords", "bias")

    def __init__(self, ell, total, samples, coords, bias):
        self.n_values = ell
        self.total = total
        self.samples = samples
        self.coords = coords
        self.bias = bias

    @classmethod
    def encode(cls, ends, coords, bias):
        """From the end offsets of the ell - 1 fields, an int64 array."""
        k = OFFSET_SAMPLE_RATE
        total = int(ends[-1]) if len(ends) else 0
        samples = PackedIntArray.from_values(ends[k - 1:-1:k].astype(np.uint64), total.bit_length())
        return cls(len(ends) + 1, total, samples, coords, bias)

    @classmethod
    def from_bytes_raw(cls, data, ell, coords, bias, whole=None):
        """Rebuild every field's end offset from all ell coordinates, with
        |B| the last, then read the samples and check each against the
        offset it should hold; returns the offsets and the end of the
        samples.  `whole` is the axis's Axis.whole: where it gives the
        coordinates as an int64 array, numpy sums the widths; otherwise
        one run of `coords` reads them and Python integers sum the widths.
        FormatError if a stored sample differs from its offset."""
        k = OFFSET_SAMPLE_RATE
        count = max(0, ell - 2) // k
        cs = whole() if whole is not None and abs(bias) < _BIAS_LIMIT else None
        if cs is None:
            cs = coords(1, ell)
            ends = list(accumulate([(b - a - bias).bit_length() for a, b in zip(cs, cs[1:])]))
        else:  # every gap is below 2^62 in magnitude, and so is the bias
            ends = np.cumsum(bit_lengths(np.abs(np.diff(cs) - bias)))
        total = int(ends[-1]) if ell > 1 else 0
        samples, off = PackedIntArray.from_bytes_raw(data, 0, count, total.bit_length())
        expect = ends[k - 1::k][:count]  # the offsets of fields k + 1, 2k + 1, ...
        if isinstance(ends, list):
            stored = [samples.get(j) for j in range(count)]
            ok = stored == expect
        else:
            stored = unpack_fields(samples.bits.words, count, samples.width)
            ok = np.array_equal(stored, expect)
        if not ok:
            j = next(j for j in range(count) if stored[j] != expect[j])
            raise FormatError(f"P sample {j + 1} holds {stored[j]}, "
                              f"but B field {k * (j + 1) + 1} starts at {expect[j]}")
        return cls(ell, total, samples, coords, bias), off

    def field(self, i, probes=None):
        """(c_i, start offset, width) of field i, 1 <= i < ell.

        Walks from the block's lower offset up to field i + 1, or down from
        its upper offset to field i, whichever costs fewer primitives: one
        per coordinate read, one for a stored offset."""
        k = OFFSET_SAMPLE_RATE
        ell = self.n_values
        if not 1 <= i < ell:
            raise IndexError(f"field ordinal {i} out of range [1, {ell - 1}]")
        lo = i - (i - 1) % k
        hi = min(lo + k, ell)
        up = i + 2 - lo + (lo > 1)
        down = hi - i + 1 + (hi < ell)
        bias = self.bias
        if up <= down:
            cs = self.coords(lo, i + 2 - lo)
            start = self.samples.get((lo - 1) // k - 1) if lo > 1 else 0
            for a, b in zip(cs, cs[1:-1]):
                start += (b - a - bias).bit_length()
            c_i, c_next = cs[-2], cs[-1]
        else:
            cs = self.coords(i, hi - i + 1)
            start = self.samples.get((hi - 1) // k - 1) if hi < ell else self.total
            for a, b in zip(cs, cs[1:]):
                start -= (b - a - bias).bit_length()
            c_i, c_next = cs[0], cs[1]
        if probes is not None:
            probes.primitives += min(up, down)
        return c_i, start, (c_next - c_i - bias).bit_length()

    def select(self, i):
        """Start offset of field i, or |B| for i == ell."""
        if i == self.n_values:
            return self.total
        return self.field(i)[1]

    def _parts(self):
        return self.samples._parts()


class ProbeCounter:
    """Instrumentation for query-cost tests.

    `primitives` counts accesses to the underlying succinct structures
    (one select, rank, packed read, or bit-field read each; a run of c
    consecutive values, read by one select and a forward scan, counts c);
    `search_steps` counts the steps of the ef-mode predecessor search
    alone: one for its rank-directory step and one per exact value it
    reads (`EliasFano.count_at_most`).  The rs-mode search is one rank,
    one primitive and no search step (`RankSelectIndex.count_at_most`).
    """

    __slots__ = ("primitives", "search_steps")

    def __init__(self):
        self.primitives = 0
        self.search_steps = 0


@dataclass
class BitBudget:
    """Exact per-component bit counts for one serialized container.

    `components` holds logical bits per named component; `padding_bits` is
    the word/byte alignment slack, so that total_bits + padding_bits equals
    the serialized file size in bits.
    """

    setting: str
    mode: str
    components: dict = field(default_factory=dict)
    padding_bits: int = 0

    @property
    def total_bits(self) -> int:
        return sum(self.components.values())

    @property
    def file_bits(self) -> int:
        return self.total_bits + self.padding_bits

    @property
    def structure_bits(self) -> int:
        """Bits of the data structure proper, excluding the file envelope
        and the per-component length prefixes (the `header` entry)."""
        return self.total_bits - self.components.get("header", 0)


def pack_envelope(magic: bytes, mode: str, header: tuple) -> bytes:
    n, u, ell, epsilon, epsilon_eff, w_delta = header
    return struct.pack(
        ENVELOPE_FMT, magic, FORMAT_VERSION, _MODE_CODE[mode], n, u, ell, epsilon, epsilon_eff, w_delta
    )


def unpack_envelope(expected_magic: bytes, data) -> tuple:
    if len(data) < ENVELOPE_BYTES:
        raise FormatError("container truncated: envelope missing")
    magic, version, mode_code, n, u, ell, epsilon, epsilon_eff, w_delta = struct.unpack_from(
        ENVELOPE_FMT, data, 0
    )
    if magic != expected_magic:
        raise FormatError(f"bad magic {magic!r}, expected {expected_magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if mode_code not in _MODE_NAME:
        raise FormatError(f"unknown mode byte {mode_code}")
    if (not 1 <= ell <= n <= u or epsilon < 1 or epsilon_eff > epsilon + 3
            or w_delta != (2 * epsilon_eff).bit_length()):
        raise FormatError(f"inconsistent header: n {n}, u {u}, ell {ell}, epsilon {epsilon}, "
                          f"epsilon_eff {epsilon_eff}, w_delta {w_delta}")
    return _MODE_NAME[mode_code], (n, u, ell, epsilon, epsilon_eff, w_delta)


def pack_components(payloads) -> bytes:
    out = []
    for p in payloads:
        out.append(struct.pack("<I", len(p)))
        out.append(p)
    return b"".join(out)


def unpack_components(data, off: int, count: int):
    parts = []
    for _ in range(count):
        if off + 4 > len(data):
            raise FormatError("container truncated: component length missing")
        (ln,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + ln > len(data):
            raise FormatError("container truncated: component payload missing")
        parts.append(bytes(data[off : off + ln]))
        off += ln
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes after last component")
    return parts


class Axis:
    """One axis's first coordinates c_1 <= ... <= c_ell (see module
    docstring).  skip, shift and end are its rule; once bound to the
    stored sequence s, `select(k)` reads s_k, `run(k, count)` a run of
    them, `whole()` all of them as an int64 array or None (see
    EliasFano.values_array; `whole` is None for a bitvector), and
    c_i = s_{i-skip} + shift*(i-1) + base."""

    __slots__ = ("skip", "shift", "end", "select", "run", "base", "whole")

    def __init__(self, skip, shift, end, select=None, run=None, base=0, whole=None):
        self.skip = skip  # 1 on the position axis, whose first coordinate 1 is implicit
        self.shift = shift
        self.end = end  # the axis's last coordinate: u on the value axis, n on the other
        self.select = select
        self.run = run
        self.base = base
        self.whole = whole

    def universe(self, ell):
        return max(1, self.end - self.shift * (ell - 1) + 1 - self.skip)

    def encode(self, coords):
        skip, shift = self.skip, self.shift
        return EliasFano.encode(list(map(sub, coords[skip:], count(shift * skip + skip, shift))),
                                self.universe(len(coords)))

    def bind(self, ef):
        """This axis read from its Elias-Fano sequence."""
        return Axis(self.skip, self.shift, self.end, ef.select, ef.select_run, self.skip, ef.values_array)

    def bind_bits(self, rs):
        """This axis read from a bitvector with a one at c_i - 1 - skip."""
        return Axis(self.skip, 0, self.end, rs.select1, rs.select_run, 1 + self.skip)

    def first(self, i, probes=None):
        """c_i."""
        skip = self.skip
        if i <= skip:
            return 1
        if probes is not None:
            probes.primitives += 1
        return self.select(i - skip) + self.shift * (i - 1) + self.base

    def pair(self, i, probes=None):
        """(c_i, c_{i+1}) for i < ell: one select and a scan to the next
        one-bit."""
        skip = self.skip
        if probes is not None:
            probes.primitives += 1 + (i > skip)
        if i <= skip:
            return 1, self.first(i + 1)
        a, b = self.run(i - skip, 2)
        shift = self.shift
        base = self.base
        return a + shift * (i - 1) + base, b + shift * i + base


class PlaContainer:
    """Immutable PLA container; see module docstring.  A subclass per
    setting supplies the axis rule: MAGIC, SETTING, VALUE_AXIS ("x" or
    "y"), shifts(epsilon) -> (position shift, value shift), B_BIAS (b),
    GAMMA_LAST (whether size_bits reports gamma_l as its own component),
    check_segments (over the segment columns first_x, last_x, first_y,
    last_y) and range_error.  An rs X bitvector on the value axis
    reaches at least the last first key, which the header does not fix,
    so its length is stored.

    Both modes find a segment with one predecessor count over X,
    `x.count_at_most`, and differ only in the structure that answers it:
    EliasFano or RankSelectIndex."""

    __slots__ = ("mode", "n", "u", "ell", "epsilon", "epsilon_eff", "w_delta",
                 "x", "y_ef", "b_bits", "p_ef", "d_beta", "d_gamma",
                 "x_axis", "y_axis", "value_axis", "position_axis")

    def __init__(self, mode, header, x, y_ef):
        """The coordinate components: X (an EliasFano in ef mode, a
        RankSelectIndex in rs mode) and Y; the caller sets b_bits, p_ef,
        d_beta and d_gamma."""
        self.mode = mode
        self.n, self.u, self.ell, self.epsilon, self.epsilon_eff, self.w_delta = header
        self.x = x
        self.y_ef = y_ef
        xr, yr = self.axis_rules(self.n, self.u, self.epsilon)
        self.x_axis = xr.bind(x) if mode == MODE_EF else xr.bind_bits(x)
        self.y_axis = yr.bind(y_ef)
        if self.VALUE_AXIS == "x":
            self.value_axis, self.position_axis = self.x_axis, self.y_axis
        else:
            self.value_axis, self.position_axis = self.y_axis, self.x_axis

    @classmethod
    def axis_rules(cls, n, u, epsilon):
        """The unbound Axis of X and of Y."""
        position_shift, value_shift = cls.shifts(epsilon)
        value, position = Axis(0, value_shift, u), Axis(1, position_shift, n)
        return (value, position) if cls.VALUE_AXIS == "x" else (position, value)

    def header(self):
        return (self.n, self.u, self.ell, self.epsilon, self.epsilon_eff, self.w_delta)

    @property
    def x_ef(self):
        """X in ef mode, else None."""
        return self.x if self.mode == MODE_EF else None

    @property
    def x_rs(self):
        """X in rs mode, else None."""
        return self.x if self.mode == MODE_RS else None

    # -- encoding ------------------------------------------------------------

    @classmethod
    def from_pla(cls, pla, points, mode=MODE_EF):
        """Pack a PLA over `points` of this setting, after the setting's
        segment checks."""
        if pla.setting != cls.SETTING or points.setting != cls.SETTING:
            raise ValueError(f"{cls.__name__} requires a {cls.SETTING}-setting PLA and sequence")
        if mode not in (MODE_EF, MODE_RS):
            raise ValueError(f"unknown mode {mode!r}")
        ell = pla.ell
        if ell < 1:
            raise ValueError("cannot encode an empty PLA")
        n = points.n
        u = points.values[-1]  # container universe: the final sequence value
        w_delta = (2 * pla.epsilon_eff).bit_length()
        header = (n, u, ell, pla.epsilon, pla.epsilon_eff, w_delta)
        if max(header) >> 64:
            raise ValueError(f"header value {max(header)} does not fit in 64 bits")
        if pla.epsilon < 1:  # the loader refuses such a header
            raise ValueError(f"epsilon {pla.epsilon} is below 1")
        if pla.epsilon_eff > pla.epsilon + 3:
            raise ValueError(f"epsilon_eff {pla.epsilon_eff} exceeds epsilon + 3 = {pla.epsilon + 3}")
        # the segment columns, each a list of ints (zip(*segments) would
        # allocate a tracked iterator per segment and wake the collector)
        fx, lx, beta, gamma, fy, ly = [list(map(itemgetter(k), pla.segments)) for k in range(6)]
        cls.check_segments(fx, lx, fy, ly, n, u, pla.epsilon)

        xr, yr = cls.axis_rules(n, u, pla.epsilon)
        if mode == MODE_EF:
            x = xr.encode(fx)
        else:
            x_len = max(xr.end - xr.shift, fx[-1]) if cls.VALUE_AXIS == "x" else max(0, xr.end - xr.skip)
            if x_len >> 32:  # its length and select samples are stored as u32
                raise ValueError(f"rs bitvector of {x_len} bits exceeds the format's 2^32 - 1; use ef mode")
            x = RankSelectIndex.from_ones(x_len, map(sub, fx[xr.skip:], repeat(1 + xr.skip)))
        store = cls(mode, header, x, yr.encode(fy))

        # once the value axis is encoded, its coordinates lie in [0, 2^64)
        # and its gaps are at least 2b, so the uint64 widths cannot wrap
        firsts, lasts = (fx, lx) if cls.VALUE_AXIS == "x" else (fy, ly)
        b = cls.B_BIAS
        widths = bit_lengths(np.diff(np.array(firsts, dtype=np.uint64)) - np.uint64(2 * b))
        values = list(map(sub, map(sub, lasts[:-1], firsts), repeat(b)))  # v'_i - v_i - b
        store.b_bits = BitVector(*pack_fields(values, widths))
        store.p_ef = FieldOffsets.encode(np.cumsum(widths), *store.field_coords())

        deltas = list(map(sub, beta, fy)) + list(map(sub, gamma, ly))
        lo, hi = min(deltas), max(deltas)
        if zigzag(lo) >> w_delta or zigzag(hi) >> w_delta:
            raise ValueError("anchor delta exceeds the recorded effective error")
        if not -(1 << 63) <= lo <= hi < 1 << 63:
            raise ValueError("anchor delta of 2^63 or more: its zig-zag code does not fit in 64 bits")
        d = np.array(deltas, dtype=np.int64)
        codes = ((d << 1) ^ (d >> 63)).view(np.uint64)  # zig-zag: the sign in the low bit
        store.d_beta = PackedIntArray.from_values(codes[:ell], w_delta)
        store.d_gamma = PackedIntArray.from_values(codes[ell:], w_delta)
        return store

    def field_coords(self):
        """FieldOffsets' coordinate reader over the stored value-axis
        coordinates, and the bias that turns their gaps into B widths."""
        va = self.value_axis
        return va.run, 2 * self.B_BIAS - va.shift

    # -- decoding ------------------------------------------------------------

    def segment_of(self, x, probes=None):
        """Ordinal of the segment whose first x-coordinate is the largest
        <= x."""
        ax = self.x_axis
        if x < 1 or x > ax.end:
            raise IndexError(self.range_error(x))
        # c_i <= x iff s_k + shift*k <= x - base - shift*(skip - 1), for the
        # stored ordinal k = i - skip; with no such k, only the position
        # axis's implicit c_1 = 1 can cover x
        skip, shift = ax.skip, ax.shift
        k = self.x.count_at_most(x - ax.base - shift * (skip - 1), shift, probes)
        if k or skip:
            return k + skip
        raise IndexError(self.range_error(x))

    def decode_segment(self, i, probes=None):
        """Exact reconstruction of the i-th stored segment tuple."""
        if not 1 <= i <= self.ell:
            raise IndexError(f"segment ordinal {i} out of range [1, {self.ell}]")
        va = self.value_axis
        if i < self.ell:
            c_i, start, width = self.p_ef.field(i, probes)
            v_i = c_i + va.shift * (i - 1) + va.base
            v_last = v_i + self.B_BIAS + self.b_bits.read_field(start, width)
            p_i, p_last = self.position_axis.pair(i, probes)
            p_last -= 1
            if probes is not None:
                probes.primitives += 3
        else:
            v_i, v_last = va.first(i, probes), self.u
            p_i, p_last = self.position_axis.first(i, probes), self.n
            if probes is not None:
                probes.primitives += 2
        if self.VALUE_AXIS == "x":
            x_i, x_last, y_i, y_last = v_i, v_last, p_i, p_last
        else:
            x_i, x_last, y_i, y_last = p_i, p_last, v_i, v_last
        beta = y_i + unzigzag(self.d_beta.get(i - 1))
        gamma = y_last + unzigzag(self.d_gamma.get(i - 1))
        return tuple.__new__(Segment, (x_i, x_last, beta, gamma, y_i, y_last))  # Segment's field order, unchecked

    def predict(self, x, probes=None):
        """Approximate y at x."""
        seg = self.decode_segment(self.segment_of(x, probes), probes)
        return interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, x)

    def decode_all_segments(self):
        return [self.decode_segment(i) for i in range(1, self.ell + 1)]

    # -- size accounting and serialization -----------------------------------

    def components(self) -> dict:
        """The six components by name, in serialized order."""
        return {"x": self.x, "y": self.y_ef, "b": self.b_bits, "p": self.p_ef,
                "delta_beta": self.d_beta, "delta_gamma": self.d_gamma}

    def size_bits(self) -> BitBudget:
        """Exact per-component bit accounting of the serialized container."""
        budget = BitBudget(setting=self.SETTING, mode=self.mode)
        c = budget.components
        c["header"] = ENVELOPE_BYTES * 8 + 32 * N_COMPONENTS
        aux = 32 * self._stores_x_length()
        for name, part in self.components().items():
            c[name] = part.payload_bits()
            budget.padding_bits += part.padding_bits()
            aux += part.aux_bits()
        if self.GAMMA_LAST:
            c["delta_gamma"] -= self.w_delta
            c["gamma_last"] = self.w_delta
        c["aux"] = aux
        return budget

    def _stores_x_length(self):
        """Whether X is prefixed by its bitvector length as a u32."""
        return self.mode == MODE_RS and self.VALUE_AXIS == "x"

    def to_bytes(self) -> bytes:
        parts = [part.to_bytes_raw() for part in self.components().values()]
        if self._stores_x_length():
            parts[0] = struct.pack("<I", self.x.owner.nbits) + parts[0]
        return pack_envelope(self.MAGIC, self.mode, self.header()) + pack_components(parts)

    @classmethod
    def from_parts(cls, mode, header, parts):
        """The container from its envelope and its component payloads;
        FormatError if a payload is longer than what it holds."""
        n, u, ell, epsilon, epsilon_eff, w_delta = header
        xr, yr = cls.axis_rules(n, u, epsilon)
        if mode == MODE_EF:
            x, x_end = EliasFano.from_bytes_raw(parts[0], 0, ell - xr.skip, xr.universe(ell))
        elif cls.VALUE_AXIS == "x":
            (x_len,), off = read_words(parts[0], 0, 1, "I")
            x, x_end = RankSelectIndex.from_bytes_raw(parts[0], off, x_len, ell - xr.skip)
        else:
            x, x_end = RankSelectIndex.from_bytes_raw(parts[0], 0, max(0, xr.end - xr.skip), ell - xr.skip)
        y_ef, y_end = EliasFano.from_bytes_raw(parts[1], 0, ell - yr.skip, yr.universe(ell))
        store = cls(mode, header, x, y_ef)
        store.p_ef, p_end = FieldOffsets.from_bytes_raw(parts[3], ell, *store.field_coords(), store.value_axis.whole)
        store.b_bits, b_end = BitVector.from_bytes_raw(parts[2], 0, store.p_ef.total)
        store.d_beta, db_end = PackedIntArray.from_bytes_raw(parts[4], 0, ell, w_delta)
        store.d_gamma, dg_end = PackedIntArray.from_bytes_raw(parts[5], 0, ell, w_delta)
        for name, part, end in zip(store.components(), parts, (x_end, y_end, b_end, p_end, db_end, dg_end)):
            if end != len(part):
                raise FormatError(f"component {name} holds {end} bytes but its payload has {len(part)}")
        return store
