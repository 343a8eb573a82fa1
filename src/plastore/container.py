"""The PLA container shared by both settings, and its plumbing:
signed-delta packing, the B field offsets rebuilt at load, size
accounting, query instrumentation, and the file envelope.

A PLA is a list of segments over points (x, y).  One axis is the *value
axis*, which holds the sequence values and ends at u (Y in compression,
X in indexing); the other is the *position axis*, which holds the ranks
1..n.  Segment i covers x_i..x'_i and y_i..y'_i and stores the integer
anchors beta_i (at x_i) and gamma_i (at x'_i).  The container keeps five
components:

* X, Y -- the first coordinates c_1 <= ... <= c_l of each axis, as the
  Elias-Fano sequence of c_i - shift*(i-1) - skip for i > skip.  The
  position axis has skip = 1: its c_1 = 1 is implicit.  In rs mode X is
  instead a bitvector with a one at c_i - 1 - skip for i > skip and a
  rank directory, so the covering segment is one rank;
* B -- the last value-axis coordinate v'_i of each non-final segment, as
  v'_i - v_i - b in bit_length(v_{i+1} - v_i - 2b) bits, concatenated;
  v'_l = u is implicit.  On the position axis p'_i = p_{i+1} - 1 and
  p'_l = n, so nothing is stored for it.  The field offsets are prefix
  sums of widths the value axis fixes: load rebuilds them and keeps every
  8th in memory (FieldOffsets);
* delta_beta, delta_gamma -- the zig-zag deltas of beta_i against y_i and
  of gamma_i against y'_i, digits in radix m = 2*epsilon_eff + 1 packed K
  to a group (MixedRadixArray), for the largest K with m^K <= 2^64.

Each setting supplies its axis rule (a PlaContainer subclass):

    setting      magic  value axis  position shift  value shift  b  rs bitvector length
    compression  PLAC   Y           1               0            0  n - 1, derived
    indexing     PLAI   X           2e - 1          2e - 1       1  max(u - 2e + 1, x_l), stored

File layout (format version 3): magic (4 bytes) | version u8 | mode u8 |
n, u, ell, epsilon, epsilon_eff, w_delta as little-endian u64 | the five
components X, Y, B, delta_beta, delta_gamma, each prefixed by its length
as a u32.  Components are stored in raw form: every length that can be
derived from the header is omitted from the payload, and so is every
value the other components determine (the first select sample of a
directory, the offsets of the B fields, the total length of B).  Format
version 2 stored every 8th B offset as a sixth component, P, and each
delta in a w_delta-bit field of its own; load refuses it.

Encode (`from_pla`) reads the segments once, into six int64 or object
columns (pla.segment_columns), and derives every component from them by
column arithmetic; `to_bytes` writes the file in one join.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import FormatError
from .pla import Segment, interpolate, segment_columns
from .succinct import BitVector, EliasFano, MixedRadixArray, RankSelectIndex, bit_lengths, pack_fields, read_words

FORMAT_VERSION = 3

# FieldOffsets keeps the absolute offset of every OFFSET_SAMPLE_RATE-th B field.
OFFSET_SAMPLE_RATE = 8
_BIAS_LIMIT = 1 << 62  # load sums the B widths in int64 only for a smaller bias

MODE_EF = "ef"
MODE_RS = "rs"
_MODE_CODE = {MODE_EF: 0, MODE_RS: 1}
_MODE_NAME = {0: MODE_EF, 1: MODE_RS}

ENVELOPE_FMT = "<4sBB6Q"
ENVELOPE_BYTES = struct.calcsize(ENVELOPE_FMT)
N_COMPONENTS = 5


def zigzag(d: int) -> int:
    """Fold a signed delta into an unsigned code (sign in the low bit)."""
    return (d << 1) if d >= 0 else ((-d << 1) - 1)


def check_pairs(rules):
    """Raise the message of the first rule broken, checking the pairs of
    consecutive segments in order and each pair's rules in the order
    listed: `rules` is a list of (message, broken), where broken is a
    boolean array, true at i if segment pair i breaks the rule."""
    if any(broken.any() for _, broken in rules):
        broken = np.stack([b for _, b in rules])
        i = int(broken.any(axis=0).argmax())  # the first pair that breaks a rule
        raise ValueError(rules[int(broken[:, i].argmax())][0])


class FieldOffsets:
    """Start offsets of the ell - 1 variable-width B fields, kept in memory
    only: nothing of it is stored.

    Field i (1-indexed) is bit_length(c_{i+1} - c_i - bias) bits wide,
    where c is a coordinate sequence the store keeps (first values in
    compression; first keys, in the form X stores them, in indexing) and
    `bias` turns its gaps into field widths, so each offset is a prefix
    sum of widths the coordinates already fix.  Encode has every offset
    (`from_ends`); load rebuilds them from all ell coordinates
    (`from_axis`).  Either keeps the absolute offset of field i for
    i = 1 (mod k), 1 < i < ell, as a list (`samples`); field 1 starts at
    0 and the sentinel |B| closes the last block.  A field's offset is the
    nearer of its block's two bounding offsets, plus or minus the widths
    of the fields in between, read from one run of coordinates
    (`coords(start, count)`: one select, then a forward scan).

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
    def from_ends(cls, ends, coords, bias):
        """From the end offsets of the ell - 1 fields, a list or an int64
        array."""
        k = OFFSET_SAMPLE_RATE
        samples = ends[k - 1:-1:k]
        total = int(ends[-1]) if len(ends) else 0
        return cls(len(ends) + 1, total, samples if isinstance(samples, list) else samples.tolist(), coords, bias)

    @classmethod
    def from_axis(cls, ell, coords, bias, whole=None):
        """Every field's end offset rebuilt from all ell coordinates.
        `whole` is the axis's Axis.whole: where it gives the coordinates as
        an array, numpy sums the widths; otherwise one run of `coords`
        reads them and Python integers sum the widths."""
        cs = whole() if whole is not None and abs(bias) < _BIAS_LIMIT else None
        if cs is None:
            cs = coords(1, ell)
            ends = list(accumulate([(b - a - bias).bit_length() for a, b in zip(cs, cs[1:])]))
        else:  # int64 keeps every gap, and the bias, below 2^62 in magnitude; object is exact
            ends = np.cumsum(bit_lengths(np.abs(np.diff(cs) - bias)))
        return cls.from_ends(ends, coords, bias)

    def memory_bits(self):
        """The samples' bits if they were packed in bit_length(|B|) bits
        each, as format version 2 stored them."""
        return len(self.samples) * self.total.bit_length()

    def field(self, i, probes=None):
        """(c_i, start offset, width) of field i, 1 <= i < ell.

        Walks from the block's lower offset up to field i + 1, or down from
        its upper offset to field i, whichever costs fewer primitives: one
        per coordinate read, one for a sampled offset."""
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
            start = self.samples[(lo - 1) // k - 1] if lo > 1 else 0
            for a, b in zip(cs, cs[1:-1]):
                start += (b - a - bias).bit_length()
            c_i, c_next = cs[-2], cs[-1]
        else:
            cs = self.coords(i, hi - i + 1)
            start = self.samples[(hi - 1) // k - 1] if hi < ell else self.total
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
    the serialized file size in bits.  `in_memory` holds the bits of what
    load rebuilds and keeps without reading it from the file (the sampled
    B offsets, `p_samples`); it is in none of the totals.
    """

    setting: str
    mode: str
    components: dict = field(default_factory=dict)
    padding_bits: int = 0
    in_memory: dict = field(default_factory=dict)

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
    """The `count` component payloads of `data` from byte `off` on, as
    memoryviews into `data`: load reads the words in place, without a copy
    of a universe-sized `rs` payload."""
    view = memoryview(data)
    parts = []
    for _ in range(count):
        if off + 4 > len(data):
            raise FormatError("container truncated: component length missing")
        (ln,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + ln > len(data):
            raise FormatError("container truncated: component payload missing")
        parts.append(view[off : off + ln])
        off += ln
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes after last component")
    return parts


class Axis:
    """One axis's first coordinates c_1 <= ... <= c_ell (see module
    docstring).  skip, shift and end are its rule; once bound to the
    stored sequence s, `select(k)` reads s_k, `run(k, count)` a run of
    them, `whole()` all of them as an array or None (see
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
        """The Elias-Fano sequence of a column of all ell coordinates."""
        skip = self.skip
        steps = np.arange(skip, len(coords)).astype(coords.dtype)
        return EliasFano.encode(coords[skip:] - self.shift * steps - skip, self.universe(len(coords)))

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
        # the segment columns; u and 2*epsilon*ell, above every shift*(i - 1), join the int64 guard
        fx, lx, beta, gamma, fy, ly = segment_columns(pla.segments, u, 2 * pla.epsilon * ell)
        cls.check_segments(fx, lx, fy, ly, n, u, pla.epsilon)

        xr, yr = cls.axis_rules(n, u, pla.epsilon)
        if mode == MODE_EF:
            x = xr.encode(fx)
        else:
            x_len = max(xr.end - xr.shift, int(fx[-1])) if cls.VALUE_AXIS == "x" else max(0, xr.end - xr.skip)
            if x_len >> 32:  # its length and select samples are stored as u32
                raise ValueError(f"rs bitvector of {x_len} bits exceeds the format's 2^32 - 1; use ef mode")
            x = RankSelectIndex.from_ones(x_len, fx[xr.skip:] - (1 + xr.skip))
        store = cls(mode, header, x, yr.encode(fy))

        # once the value axis is encoded, its coordinates lie in [0, 2^64)
        # and its gaps are at least 2b, so the uint64 widths cannot wrap
        firsts, lasts = (fx, lx) if cls.VALUE_AXIS == "x" else (fy, ly)
        b = cls.B_BIAS
        widths = bit_lengths(np.diff(firsts.astype(np.uint64)) - np.uint64(2 * b))
        store.b_bits = BitVector(*pack_fields(lasts[:-1] - firsts[:-1] - b, widths))  # v'_i - v_i - b
        store.p_ef = FieldOffsets.from_ends(np.cumsum(widths), *store.field_coords())

        deltas = np.concatenate((beta - fy, gamma - ly))
        lo, hi = int(deltas.min()), int(deltas.max())
        radix = 2 * pla.epsilon_eff + 1
        if max(zigzag(lo), zigzag(hi)) >= radix:
            raise ValueError("anchor delta exceeds the recorded effective error")
        if not -(1 << 63) <= lo <= hi < 1 << 63:
            raise ValueError("anchor delta of 2^63 or more: its zig-zag code does not fit in 64 bits")
        d = deltas.astype(np.int64)
        codes = ((d << 1) ^ (d >> 63)).view(np.uint64)  # zig-zag: the sign in the low bit
        store.d_beta = MixedRadixArray.from_digits(codes[:ell], radix)
        store.d_gamma = MixedRadixArray.from_digits(codes[ell:], radix)
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
        # both deltas are digit j of group q of their arrays, which share a
        # shape: MixedRadixArray.group, read inline for both
        db, dg = self.d_beta, self.d_gamma
        q, j = divmod(i - 1, db.per_group)
        width, limit = (db.width, db.limit) if q < db.last else (db.last_width, db.last_limit)
        zb = db.bits.read_field(q * db.width, width)
        zg = dg.bits.read_field(q * db.width, width)
        if zb >= limit or zg >= limit:
            (db if zb >= limit else dg).group(q)  # raises the FormatError
        power, radix = db.powers[j], db.radix
        zb, zg = zb // power % radix, zg // power % radix
        beta = y_i + ((zb >> 1) ^ -(zb & 1))  # zig-zag decoded: the sign in the low bit
        gamma = y_last + ((zg >> 1) ^ -(zg & 1))
        return tuple.__new__(Segment, (x_i, x_last, beta, gamma, y_i, y_last))  # Segment's field order, unchecked

    def predict(self, x, probes=None):
        """Approximate y at x."""
        seg = self.decode_segment(self.segment_of(x, probes), probes)
        return interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, x)

    def decode_all_segments(self):
        return [self.decode_segment(i) for i in range(1, self.ell + 1)]

    # -- size accounting and serialization -----------------------------------

    def components(self) -> dict:
        """The five components by name, in serialized order."""
        return {"x": self.x, "y": self.y_ef, "b": self.b_bits, "delta_beta": self.d_beta, "delta_gamma": self.d_gamma}

    def size_bits(self) -> BitBudget:
        """Exact per-component bit accounting of the serialized container,
        and the bits of the B offsets that load keeps in memory, apart."""
        budget = BitBudget(setting=self.SETTING, mode=self.mode)
        c = budget.components
        c["header"] = ENVELOPE_BYTES * 8 + 32 * N_COMPONENTS
        aux = 32 * self._stores_x_length()
        for name, part in self.components().items():
            c[name] = part.payload_bits()
            budget.padding_bits += part.padding_bits()
            aux += part.aux_bits()
        if self.GAMMA_LAST:
            last = self.d_gamma.last_digit_bits()
            c["delta_gamma"] -= last
            c["gamma_last"] = last
        c["aux"] = aux
        budget.in_memory["p_samples"] = self.p_ef.memory_bits()
        return budget

    def _stores_x_length(self):
        """Whether X is prefixed by its bitvector length as a u32."""
        return self.mode == MODE_RS and self.VALUE_AXIS == "x"

    def to_bytes(self) -> bytes:
        """The file, in one join of every write_words buffer: a
        universe-sized `rs` payload is copied once."""
        out = [pack_envelope(self.MAGIC, self.mode, self.header())]
        for i, part in enumerate(self.components().values()):
            chunks = part.raw_chunks()
            if i == 0 and self._stores_x_length():
                chunks.insert(0, struct.pack("<I", self.x.owner.nbits))
            out.append(struct.pack("<I", sum(memoryview(c).nbytes for c in chunks)))
            out += chunks
        return b"".join(out)

    @classmethod
    def from_parts(cls, mode, header, parts):
        """The container from its envelope and its component payloads;
        FormatError if a payload is longer than what it holds."""
        n, u, ell, epsilon, epsilon_eff, _ = header
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
        store.p_ef = FieldOffsets.from_axis(ell, *store.field_coords(), store.value_axis.whole)
        store.b_bits, b_end = BitVector.from_bytes_raw(parts[2], 0, store.p_ef.total)
        store.d_beta, db_end = MixedRadixArray.from_bytes_raw(parts[3], 0, ell, 2 * epsilon_eff + 1)
        store.d_gamma, dg_end = MixedRadixArray.from_bytes_raw(parts[4], 0, ell, 2 * epsilon_eff + 1)
        for name, part, end in zip(store.components(), parts, (x_end, y_end, b_end, db_end, dg_end)):
            if end != len(part):
                raise FormatError(f"component {name} holds {end} bytes but its payload has {len(part)}")
        return store
