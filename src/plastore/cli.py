"""Command-line surface: build and query containers, emit size/bound
reports, and run the brute-force verifications.

Every error path exits non-zero after printing a single line starting
with ``error:`` to stderr.  Identical inputs and flags produce
byte-identical containers and reports.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys

from . import bounds as bnd
from .container import MODE_EF, MODE_RS
from .errors import BudgetError, FormatError
from .oracle import DEFAULT_BUDGET, EnumSpec, enumerate_pla_c, enumerate_pla_i
from .pla import COMPRESSION, INDEXING, Pla, PointSeq, build_optimal_pla, interpolate, verify_error
from .store_compression import CompressedPlaC
from .store_indexing import CompressedPlaI

# each container class by its setting (for build) and by its magic (for load)
CONTAINERS = {key: cls for cls in (CompressedPlaC, CompressedPlaI) for key in (cls.SETTING, cls.MAGIC)}


def read_sequence(path: str, fmt: str) -> list:
    if fmt == "text":
        values = []
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(int(line))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
        return values
    if fmt == "u64le":
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) % 8 != 0:
            raise ValueError(f"{path}: length {len(data)} is not a multiple of 8")
        return [v for (v,) in struct.iter_unpack("<Q", data)]
    raise ValueError(f"unknown input format {fmt!r}")


def load_points(path: str, fmt: str, setting: str) -> PointSeq:
    values = read_sequence(path, fmt)
    prev = 0
    for i, v in enumerate(values):
        if v <= prev:
            raise ValueError(f"{path}: line {i + 1}: values must be strictly increasing and >= 1")
        prev = v
    return PointSeq(values, setting=setting)


def load_container(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    cls = CONTAINERS.get(data[:4])
    if cls is None:
        raise FormatError(f"{path}: unrecognized container magic {data[:4]!r}")
    return cls.from_bytes(data)


def cmd_build(args) -> int:
    points = load_points(args.input, args.format, args.setting)
    pla = build_optimal_pla(points, args.epsilon)
    store = CONTAINERS[args.setting].from_pla(pla, points, args.mode)
    data = store.to_bytes()
    with open(args.output, "wb") as fh:
        fh.write(data)
    budget = store.size_bits()
    print(f"ell={store.ell} epsilon={store.epsilon} epsilon_eff={store.epsilon_eff} "
          f"total_bits={budget.total_bits} file_bytes={len(data)}")
    return 0


def cmd_predict(args) -> int:
    store = load_container(args.container)
    if args.batch:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            x = int(line)
            print(x, *_predict(store, x))
        return 0
    if args.x is None:
        raise ValueError("predict needs --x or --batch")
    print(*_predict(store, args.x))
    return 0


def _predict(store, x):
    """(value at x, covering segment's ordinal), with one search."""
    i = store.segment_of(x)
    seg = store.decode_segment(i)
    return interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, x), i


def _store_params(store):
    segments = store.decode_all_segments()
    params = {
        "ell": store.ell,
        "n": store.n,
        "u": store.u,
        "epsilon": store.epsilon,
        "epsilon_eff": store.epsilon_eff,
    }
    if store.SETTING == COMPRESSION:
        params["y"] = [s.first_y for s in segments]
    else:
        params["x"] = [s.first_x for s in segments]
    return params


def cmd_stats(args) -> int:
    store = load_container(args.container)
    if args.input:
        points = load_points(args.input, args.format, store.SETTING)
        if points.n != store.n or points.values[-1] != store.u:
            raise ValueError("input sequence does not match the container header")
    params = _store_params(store)
    report = bnd.redundancy_report(store.size_bits(), params, store.SETTING)
    if args.report == "json":
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print(report.as_text())
    return 0


def cmd_verify(args) -> int:
    store = load_container(args.container)
    setting = store.SETTING
    points = load_points(args.input, args.format, setting)
    if points.n != store.n:
        raise ValueError(f"container holds n={store.n} but input has n={points.n}")
    if points.values[-1] != store.u:
        raise ValueError(f"container universe {store.u} does not match final value {points.values[-1]}")
    segments = store.decode_all_segments()
    if verify_error(Pla(segments, store.epsilon, store.epsilon_eff, setting), points) <= store.epsilon_eff:
        print(f"OK: all {store.n} points within epsilon_eff={store.epsilon_eff}")
        return 0
    xs, ys = points.plane_points()
    bad = []
    for seg in segments:
        span = range(seg.first_x - 1, seg.last_x) if setting == COMPRESSION else range(seg.first_y - 1, seg.last_y)
        for j in span:
            pred = interpolate(seg.first_x, seg.last_x, seg.intercept, seg.final_y, xs[j])
            if abs(pred - ys[j]) > store.epsilon_eff:
                bad.append((xs[j], pred, ys[j]))
    for x, pred, truth in bad[:20]:
        print(f"violation at x={x}: predicted {pred}, true {truth}, epsilon_eff {store.epsilon_eff}")
    print(f"FAIL: {len(bad)} of {store.n} points exceed epsilon_eff={store.epsilon_eff}")
    return 1


def _read_vector(path):
    return tuple(read_sequence(path, "text"))


def cmd_bounds(args) -> int:
    if args.setting == COMPRESSION:
        if not args.y_file:
            raise ValueError("compression bounds need --y-file with the first covered values")
        y = _read_vector(args.y_file)
        count = bnd.count_c(args.ell, args.epsilon, args.u, args.n, y)
        lb = bnd.lower_bound_c(args.ell, args.epsilon, args.u, args.n, y)
    else:
        if args.x_file:
            x = _read_vector(args.x_file)
            count = bnd.count_i(args.ell, args.epsilon, args.u, args.n, x)
            lb = bnd.lower_bound_i(args.ell, args.epsilon, args.u, args.n, x)
        else:
            count = bnd.count_i_general(args.ell, args.epsilon, args.u, args.n)
            lb = bnd.log2_big(count) if count > 0 else 0.0
    print(f"count={count}")
    print(f"log2_bound={lb:.6f}")
    return 0


def cmd_oracle_count(args) -> int:
    if args.setting == COMPRESSION:
        if not args.y_file:
            raise ValueError("oracle-count (compression) needs --y-file")
        y = _read_vector(args.y_file)
        spec = EnumSpec(ell=args.ell, epsilon=args.epsilon, u=args.u, n=args.n,
                        fixed_y=y, budget=args.budget)
        enum = enumerate_pla_c(spec)
        factor = bnd.conditional_count_c(args.ell, args.epsilon, args.u, args.n, y)
        full = bnd.count_c(args.ell, args.epsilon, args.u, args.n, y)
    else:
        if not args.x_file:
            raise ValueError("oracle-count (indexing) needs --x-file")
        x = _read_vector(args.x_file)
        spec = EnumSpec(ell=args.ell, epsilon=args.epsilon, u=args.u, n=args.n,
                        fixed_x=x, budget=args.budget)
        enum = enumerate_pla_i(spec)
        factor = bnd.conditional_count_i(args.ell, args.epsilon, args.u, args.n, x)
        full = bnd.count_i(args.ell, args.epsilon, args.u, args.n, x)
    agree = enum == factor
    print(f"enumerated={enum}")
    print(f"conditional_factor={factor}")
    print(f"agreement={'yes' if agree else 'NO'}")
    print(f"full_formula={full}")
    return 0 if agree else 1


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plastore",
                                description="Succinct storage and size bounds for piecewise "
                                            "linear approximations of monotone integer sequences.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_input_flags(sp):
        sp.add_argument("--input", required=True, help="sequence file")
        sp.add_argument("--format", choices=["text", "u64le"], default="text")

    b = sub.add_parser("build", help="build a container from a sequence")
    b.add_argument("--setting", choices=[COMPRESSION, INDEXING], required=True)
    b.add_argument("--epsilon", type=int, required=True)
    b.add_argument("--mode", choices=[MODE_EF, MODE_RS], default=MODE_EF)
    add_input_flags(b)
    b.add_argument("--output", required=True)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("predict", help="query a container")
    q.add_argument("container")
    q.add_argument("--x", type=int, default=None)
    q.add_argument("--batch", action="store_true", help="read query values from stdin")
    q.set_defaults(func=cmd_predict)

    s = sub.add_parser("stats", help="size report against the lower bound")
    s.add_argument("container")
    s.add_argument("--input", default=None, help="original sequence, for cross-validation")
    s.add_argument("--format", choices=["text", "u64le"], default="text")
    s.add_argument("--report", choices=["text", "json"], default="text")
    s.set_defaults(func=cmd_stats)

    v = sub.add_parser("verify", help="check the error contract at every point")
    v.add_argument("container")
    add_input_flags(v)
    v.set_defaults(func=cmd_verify)

    def add_param_flags(sp):
        sp.add_argument("--setting", choices=[COMPRESSION, INDEXING], required=True)
        sp.add_argument("--ell", type=int, required=True)
        sp.add_argument("--epsilon", type=int, required=True)
        sp.add_argument("--u", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--y-file", default=None)
        sp.add_argument("--x-file", default=None)

    bd = sub.add_parser("bounds", help="evaluate counting formulas and lower bounds")
    add_param_flags(bd)
    bd.set_defaults(func=cmd_bounds)

    oc = sub.add_parser("oracle-count", help="exhaustive enumeration vs the counting formula")
    add_param_flags(oc)
    oc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    oc.set_defaults(func=cmd_oracle_count)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError, BudgetError) as exc:  # FormatError, CoverageError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
