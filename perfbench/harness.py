"""One benchmark run: set-up, timed passes over a workload, the
correctness gate, and the end-to-end and per-layer metrics.

One process, one caller, no threads: a closed loop that sends the next
call when the previous one has returned.  A pass runs, for every
instance of the workload, the whole user path on both query modes:
build, encode + serialize, load, predict, verify and stats.  Passes
repeat until the next one would overrun the run's seconds.

Each unit of work -- one operation on one instance, or one predict
call -- runs once per pass.  A time metric sums the fastest pass of
every operation; a latency percentile is taken over the fastest pass of
every call.  The shared machines this was written on switch between
speeds up to 2x apart every few seconds; a median over a run then depends
on how much of the run fell in a slow spell, the fastest of several
passes of a short unit much less so.

With tracing on, every second pass is traced: each call into a layer
gets a span, the library's internal calls listed in `layers` are wrapped
too, and each succinct primitive is timed on the instance's own
structures.  The untraced passes in between give the tracing overhead.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import layers
from plastore import (
    COMPRESSION,
    INDEXING,
    MODE_EF,
    MODE_RS,
    CompressedPlaC,
    CompressedPlaI,
    Pla,
    PointSeq,
    ProbeCounter,
    build_optimal_pla,
    encode_c,
    encode_i,
    predict_reference,
    verify_error,
)
from plastore.bounds import redundancy_report
from plastore.errors import CoverageError
from spans import Clock, Tracer, patched
from workloads import WORKLOADS

MODES = (MODE_EF, MODE_RS)
CODECS = {COMPRESSION: (encode_c, CompressedPlaC.from_bytes), INDEXING: (encode_i, CompressedPlaI.from_bytes)}
SETUP_REPEATS = 7
SIZE_COMPONENTS = ("x", "y", "b", "p", "delta_beta", "delta_gamma", "aux")


class Gate:
    """Counts checked operations and failed checks; an exception inside
    an operation counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class PassTimes:
    def __init__(self, traced: bool):
        self.traced = traced
        self.ns = defaultdict(int)  # (instance, op) -> ns; op is build or <step>.<mode>
        self.latency = {}  # (instance, mode, query number) -> ns

    def timed_ns(self) -> int:
        return sum(self.ns.values()) + sum(self.latency.values())


def fastest(passes, attr: str) -> dict:
    """unit -> its lowest ns over the passes."""
    best = {}
    for p in passes:
        for unit, ns in getattr(p, attr).items():
            best[unit] = min(ns, best.get(unit, ns))
    return best


def percentile(xs, q: float):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Run:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.gate = Gate()
        self.passes = []
        self.tracers = []
        self.sha256 = {}  # (instance, mode) -> hex digest of the container
        self.file_bits = {m: 0 for m in MODES}
        self.components = {m: defaultdict(int) for m in MODES}
        self.built = {}  # instance -> (ell, epsilon_eff)
        self.probes = {m: [0, 0, 0] for m in MODES}  # predicts, primitives, search steps
        self.words = []  # words scanned per timed select1 call
        self.refs = {}  # (instance, query number) -> predict_reference answer, or None if not covered

    # -- one pass ------------------------------------------------------------

    def one_pass(self, pass_no: int, traced: bool) -> None:
        clock = Tracer() if traced else Clock()
        times = PassTimes(traced)
        with patched(clock, layers.TRACE_PATCHES) if traced else nullcontext():
            hp = clock.begin("pass", pass_no)
            for inst in self.workload.instances:
                hi = clock.begin("instance", inst.name)
                depth = clock.depth()
                try:
                    self._instance(clock, times, inst, pass_no)
                except Exception as exc:  # the gate counts it; the run goes on
                    clock.unwind(depth)
                    self.gate.check(False, f"{inst.name}: {exc!r}")
                    traceback.print_exc(file=sys.stderr)
                clock.end(hi)
            clock.end(hp)
        self.passes.append(times)
        if traced:
            self.tracers.append(clock)

    def _instance(self, clock, times, inst, pass_no) -> None:
        gate = self.gate
        tag = inst.name
        encode, load = CODECS[inst.setting]

        h = clock.begin("pla.PointSeq", tag)
        points = PointSeq(inst.values, setting=inst.setting)
        ns = clock.end(h)
        h = clock.begin("pla.build_optimal_pla", tag)
        pla = build_optimal_pla(points, inst.epsilon)
        times.ns[(tag, "build")] += ns + clock.end(h)
        self.built.setdefault(tag, (pla.ell, pla.epsilon_eff))
        gate.check(self.built[tag] == (pla.ell, pla.epsilon_eff), f"{tag}: build is not deterministic")

        data = {}
        stores = {}
        for mode in MODES:
            h = clock.begin(f"store.encode.{mode}", tag)
            store = encode(pla, points, mode)
            ns = clock.end(h)
            h = clock.begin(f"store.to_bytes.{mode}", tag)
            data[mode] = store.to_bytes()
            times.ns[(tag, f"encode.{mode}")] += ns + clock.end(h)
            h = clock.begin(f"store.from_bytes.{mode}", tag)
            stores[mode] = load(data[mode])
            times.ns[(tag, f"load.{mode}")] += clock.end(h)
            gate.check(stores[mode].to_bytes() == data[mode], f"{tag} {mode}: bytes changed by a load round trip")
            digest = hashlib.sha256(data[mode]).hexdigest()
            if (tag, mode) not in self.sha256:
                self.sha256[(tag, mode)] = digest
                self.file_bits[mode] += 8 * len(data[mode])
                components = store.size_bits().components
                for name in SIZE_COMPONENTS:
                    self.components[mode][name] += components.get(name, 0)
            gate.check(self.sha256[(tag, mode)] == digest, f"{tag} {mode}: container bytes differ between passes")

        self._predicts(clock, times, inst, pla, stores)

        for mode in MODES:
            h = clock.begin(f"verify.{mode}", tag)
            hs = clock.begin(f"store.decode_all_segments.{mode}", tag)
            segments = stores[mode].decode_all_segments()
            clock.end(hs)
            hs = clock.begin("pla.verify_error", tag)
            err = verify_error(Pla(segments, pla.epsilon, stores[mode].epsilon_eff, inst.setting), points)
            clock.end(hs)
            times.ns[(tag, f"verify.{mode}")] += clock.end(h)
            gate.check(segments == pla.segments, f"{tag} {mode}: decoded segments differ from the built ones")
            gate.check(err == pla.epsilon_eff, f"{tag} {mode}: verify_error {err} != epsilon_eff {pla.epsilon_eff}")

        for mode in MODES:
            store = stores[mode]
            h = clock.begin(f"stats.{mode}", tag)
            hs = clock.begin(f"store.size_bits.{mode}", tag)
            budget = store.size_bits()
            clock.end(hs)
            hs = clock.begin(f"store.decode_all_segments.{mode}", tag)
            segments = store.decode_all_segments()
            clock.end(hs)
            params = {"ell": store.ell, "n": store.n, "u": store.u,
                      "epsilon": store.epsilon, "epsilon_eff": store.epsilon_eff}
            if inst.setting == COMPRESSION:
                params["y"] = [s.first_y for s in segments]
            else:
                params["x"] = [s.first_x for s in segments]
            hs = clock.begin("bounds.redundancy_report", tag)
            report = redundancy_report(budget, params, inst.setting)
            clock.end(hs)
            times.ns[(tag, f"stats.{mode}")] += clock.end(h)
            gate.check(budget.file_bits == 8 * len(data[mode]), f"{tag} {mode}: size_bits does not add up to the file")
            gate.check(report.measured_bits == budget.structure_bits, f"{tag} {mode}: report disagrees with size_bits")

        if clock.traced:
            rng = np.random.default_rng([self.seed, pass_no, self.workload.instances.index(inst)])
            self.words += layers.time_primitives(
                clock, gate, stores[MODE_EF], stores[MODE_RS], rng, self.workload.layer_calls, tag
            )

    def _predicts(self, clock, times, inst, pla, stores) -> None:
        gate = self.gate
        eps = pla.epsilon_eff
        for q, (x, want) in enumerate(zip(inst.queries, inst.truth)):
            got = {}
            for mode in MODES:
                store = stores[mode]
                try:
                    if clock.traced:
                        value, ns = layers.predict_parts(clock, store, x, mode, q)
                        pc = ProbeCounter()
                        gate.check(store.predict(x, probes=pc) == value,
                                   f"{inst.name} {mode}: predict({x}) != segment_of + decode_segment + interpolate")
                        counts = self.probes[mode]
                        counts[0] += 1
                        counts[1] += pc.primitives
                        counts[2] += pc.search_steps
                    else:
                        h = clock.begin(None)
                        value = store.predict(x)
                        ns = clock.end(h)
                except Exception as exc:
                    gate.check(False, f"{inst.name} {mode}: predict({x}) raised {exc!r}")
                    continue
                times.latency[(inst.name, mode, q)] = ns
                got[mode] = value
            if not gate.check(len(got) == 2 and got[MODE_EF] == got[MODE_RS], f"{inst.name}: ef/rs disagree at {x}"):
                continue
            value = got[MODE_EF]
            if want is not None:
                gate.check(abs(value - want) <= eps, f"{inst.name}: predict({x}) = {value}, truth {want}, eps {eps}")
            if (inst.name, q) not in self.refs:
                try:
                    self.refs[(inst.name, q)] = predict_reference(pla, x)
                except CoverageError:
                    self.refs[(inst.name, q)] = None
            ref = self.refs[(inst.name, q)]
            if ref is not None:
                gate.check(value == ref, f"{inst.name}: predict({x}) = {value}, predict_reference {ref}")

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, setup_s: list) -> dict:
        """name -> (value, unit, samples)."""
        un = [p for p in self.passes if not p.traced]
        n = self.workload.points
        best = fastest(un, "ns")
        calls = fastest(un, "latency")
        k = len(self.workload.instances)
        of = f"fastest of {len(un)} passes each"

        def total_ns(*ops):
            return max(1, sum(ns for (_, op), ns in best.items() if op in ops))

        def rate(step):
            ops = [f"{step}.{m}" for m in MODES] if step != "build" else ["build"]
            return len(ops) * n / total_ns(*ops) * 1e9, "pts/s", f"{k * len(ops)} operation(s), {of}"

        out = {"setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups")}
        out["build_pts_per_s"] = rate("build")
        out["encode_pts_per_s"] = rate("encode")
        for mode in MODES:
            out[f"load_ms.{mode}"] = total_ns(f"load.{mode}") / 1e6, "ms", f"{k} operation(s), {of}"
        for mode in MODES:
            lat = [ns for (_, m, _), ns in calls.items() if m == mode]
            for q in (50, 99):
                value = percentile(lat, q / 100) / 1e3 if lat else 0.0
                out[f"predict_p{q}_us.{mode}"] = (value, "us", f"{len(lat)} calls, {of}")
        out["verify_pts_per_s"] = rate("verify")
        out["stats_ms"] = total_ns("stats.ef", "stats.rs") / 1e6, "ms", f"{2 * k} operation(s), {of}"
        for mode in MODES:
            out[f"bits_per_key.{mode}"] = (self.file_bits[mode] / n, "bits/key", f"{n} keys")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["peak_rss_mb"] = (rss, "MB", "1 process")
        return out

    def per_layer(self) -> dict:
        """name -> (value, unit, samples), from the traced passes."""
        totals = [t.totals() for t in self.tracers]
        passes = f"fastest of {len(totals)} traced passes"
        n = self.workload.points

        def per_pass(span, scale, unit):
            return min(t.get(span, (0, 0, 0))[1] / scale for t in totals), unit, passes

        def per_call(span):
            d = [x for t in self.tracers for x in t.durations(span)]
            return (statistics.median(d) / 1e3 if d else 0.0), "us", f"median of {len(d)} calls"

        out = {}
        for span in ("pla.PointSeq", "pla.optimal_spans", "pla.round_to_integer_endpoints", "pla.verify_error"):
            out[f"{span}.s"] = per_pass(span, 1e9, "s")
        ells = [ell for ell, _ in self.built.values()]
        out["pla.ell"] = (sum(ells), "count", f"{len(ells)} instances")
        out["pla.pts_per_segment"] = (n / sum(ells), "pts", f"{len(ells)} instances")
        out["pla.epsilon_eff"] = (statistics.mean(e for _, e in self.built.values()), "count", f"{len(ells)} instances")
        for prim in ("EliasFano.select", "EliasFano.pred", "RankSelectIndex.rank1", "RankSelectIndex.select1",
                     "BitVector.read_field", "PackedIntArray.get"):
            out[f"succinct.{prim}.us"] = per_call(f"succinct.{prim}")
        calls = f"{len(self.words)} calls"
        out["succinct.RankSelectIndex.select1.words_scanned_mean"] = (
            statistics.mean(self.words) if self.words else 0.0, "words", calls)
        out["succinct.RankSelectIndex.select1.words_scanned_max"] = (max(self.words, default=0), "words", calls)
        for mode in MODES:
            for fn in ("encode", "to_bytes", "from_bytes", "decode_all_segments"):
                out[f"store.{fn}.s.{mode}"] = per_pass(f"store.{fn}.{mode}", 1e9, "s")
            for fn in ("segment_of", "decode_segment"):
                out[f"store.{fn}.us.{mode}"] = per_call(f"store.{fn}.{mode}")
        for mode in MODES:
            predicts, primitives, steps = self.probes[mode]
            out[f"store.probes_per_predict.{mode}"] = (primitives / max(predicts, 1), "probes", f"{predicts} calls")
            if mode == MODE_EF:
                out["store.search_steps_per_predict.ef"] = (steps / max(predicts, 1), "steps", f"{predicts} calls")
        for mode in MODES:
            for name in SIZE_COMPONENTS:
                out[f"store.size_bits.{name}.{mode}"] = (self.components[mode][name] / n, "bits/key", f"{n} keys")
        out["container.unpack.ms"] = per_pass("container.unpack", 1e6, "ms")
        for span in ("bounds.lower_bound", "bounds.baselines", "bounds.redundancy_report"):
            out[f"{span}.ms"] = per_pass(span, 1e6, "ms")
        traced = min(p.timed_ns() for p in self.passes if p.traced)
        untraced = min(p.timed_ns() for p in self.passes if not p.traced)
        out["trace.overhead_ratio"] = (traced / untraced, "ratio", f"fastest traced / fastest of {len(self.passes) - len(totals)} untraced passes")
        return out

    def counts(self) -> dict:
        """The exact counts behind the per-predict and words-scanned means."""
        out = {}
        for mode in MODES:
            predicts, primitives, steps = self.probes[mode]
            out[f"predicts.{mode}"] = predicts
            out[f"primitives.{mode}"] = primitives
            out[f"search_steps.{mode}"] = steps
        out["select1.calls"] = len(self.words)
        out["select1.words_scanned"] = sum(self.words)
        return out


def set_up(make, seed: int, scale: float):
    """Generate the workload; returns it and the seconds taken."""
    t0 = perf_counter()
    workload = make(seed, scale)
    return workload, perf_counter() - t0


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Set up, then run passes until the next one would end after
    `seconds`; with `trace`, every second pass is traced.  The set-up is
    repeated SETUP_REPEATS times, between passes, so that its median is
    not taken from one moment of the run."""
    make = WORKLOADS[name]
    workload, took = set_up(make, seed, scale)
    setup_s = [took]
    result = Run(workload, seed)

    def set_up_again():
        again, took = set_up(make, seed, scale)
        setup_s.append(took)
        result.gate.check(again.instances == workload.instances, "the same seed gave different inputs")

    start = perf_counter()
    last = []
    while True:
        t0 = perf_counter()
        result.one_pass(len(result.passes), trace and len(result.passes) % 2 == 1)
        last = (last + [perf_counter() - t0])[-2:]
        done = len(result.passes) >= (2 if trace else 1)
        if done and perf_counter() - start + max(last) > seconds:
            break
        if len(setup_s) < SETUP_REPEATS:
            set_up_again()
    while len(setup_s) < SETUP_REPEATS:
        set_up_again()
    return result, setup_s
