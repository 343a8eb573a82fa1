"""Succinct storage, size bounds, and brute-force oracles for
error-bounded piecewise linear approximations of monotone integer
sequences."""

from .pla import COMPRESSION, INDEXING, PointSeq, Segment, Pla, build_optimal_pla, round_to_integer_endpoints, verify_error
from .succinct import BitVector, RankSelectIndex, EliasFano
from .store_compression import CompressedPlaC, encode_c
from .store_indexing import CompressedPlaI, encode_i
from .bounds import (
    BigCount,
    BoundReport,
    baseline_la_bits,
    baseline_pgm_bits,
    count_c,
    count_i,
    count_i_general,
    log2_binomial,
    lower_bound_c,
    lower_bound_i,
    redundancy_report,
)
from .oracle import EnumSpec, enumerate_pla_c, enumerate_pla_i, min_segments_bruteforce, predict_reference
from .container import MODE_EF, MODE_RS, BitBudget, ProbeCounter
from .errors import BudgetError, CoverageError, FormatError

__version__ = "0.1.0"

__all__ = [
    "COMPRESSION", "INDEXING", "PointSeq", "Segment", "Pla",
    "build_optimal_pla", "round_to_integer_endpoints", "verify_error",
    "BitVector", "RankSelectIndex", "EliasFano",
    "CompressedPlaC", "encode_c",
    "CompressedPlaI", "encode_i",
    "BigCount", "BoundReport", "baseline_la_bits", "baseline_pgm_bits",
    "count_c", "count_i", "count_i_general", "log2_binomial", "lower_bound_c", "lower_bound_i",
    "redundancy_report",
    "EnumSpec", "enumerate_pla_c", "enumerate_pla_i", "min_segments_bruteforce", "predict_reference",
    "MODE_EF", "MODE_RS", "BitBudget", "ProbeCounter",
    "BudgetError", "CoverageError", "FormatError",
]
