"""Exact evaluation of the PLA counting formulas, the derived space lower
bounds, and the baseline space formulas of the two reference structures,
plus redundancy reporting against measured container sizes.

Counts are exact arbitrary-precision integers; logarithms are taken from
the exact values (never from floating intermediates), so the log-space
cross-checks hold to ~1e-12 relative error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .container import BitBudget
from .pla import COMPRESSION, INDEXING

# Arbitrary-precision natural number; Python integers are exact.
BigCount = int


def _comb(m: int, k: int) -> int:
    """Binomial coefficient extended with zero outside the triangle."""
    if k < 0 or m < 0 or k > m:
        return 0
    return math.comb(m, k)


def log2_big(x: int) -> float:
    """log2 of a positive integer of any size, accurate to ~52 mantissa bits."""
    if x <= 0:
        raise ValueError("log2 of a non-positive value")
    shift = max(0, x.bit_length() - 64)
    return math.log2(x >> shift) + shift


def log2_binomial(m: int, k: int) -> float:
    """log2 of C(m, k), from the exact binomial."""
    if k < 0 or k > m:
        raise ValueError(f"binomial domain error: C({m}, {k})")
    return log2_big(math.comb(m, k))


def _validate_y(ell, epsilon, u, n, y):
    if ell < 1 or epsilon < 1:
        raise ValueError("need ell >= 1 and epsilon >= 1")
    if n < 2 * ell:
        raise ValueError(f"need n >= 2*ell, got n={n}, ell={ell}")
    y = tuple(y)
    if len(y) != ell:
        raise ValueError(f"y must have {ell} entries")
    if y[0] < 1 or y[-1] > u or any(y[i] > y[i + 1] for i in range(ell - 1)):
        raise ValueError("y must be non-decreasing within [1, u]")
    return y


def _validate_x(ell, epsilon, u, n, x):
    if ell < 1 or epsilon < 1:
        raise ValueError("need ell >= 1 and epsilon >= 1")
    if u < ell * (2 * epsilon - 1) + ell:
        raise ValueError(f"need u >= ell*(2*epsilon-1) + ell, got u={u}")
    if n < ell * (2 * epsilon - 1) + 1:
        raise ValueError(f"need n >= ell*(2*epsilon-1) + 1, got n={n}")
    if x is None:
        return None
    x = tuple(x)
    if len(x) != ell:
        raise ValueError(f"x must have {ell} entries")
    if x[0] < 1 or x[-1] > u - 2 * epsilon + 1:
        raise ValueError("x must start >= 1 and end by u - 2*epsilon + 1")
    if any(x[i + 1] - x[i] < 2 * epsilon for i in range(ell - 1)):
        raise ValueError("x gaps must be >= 2*epsilon")
    return x


def conditional_count_c(ell, epsilon, u, n, y) -> BigCount:
    """The y-conditional factor of the compression count: split choices
    times last-value ranges times the two anchor windows per segment."""
    y = _validate_y(ell, epsilon, u, n, y)
    prod = 1
    for i in range(ell - 1):
        prod *= y[i + 1] - y[i] + 1
    return _comb(n - ell - 1, ell - 1) * prod * (2 * epsilon + 1) ** (2 * ell)


def count_c(ell, epsilon, u, n, y) -> BigCount:
    """Number of compression-setting PLAs with the given parameters."""
    y = _validate_y(ell, epsilon, u, n, y)
    return conditional_count_c(ell, epsilon, u, n, y) * _comb(u + ell - 1, ell)


def conditional_count_i(ell, epsilon, u, n, x) -> BigCount:
    """The x-conditional factor of the indexing count."""
    x = _validate_x(ell, epsilon, u, n, x)
    prod = 1
    for i in range(ell - 1):
        prod *= x[i + 1] - x[i] - 1
    return _comb(n - ell * (2 * epsilon - 1) - 1, ell - 1) * prod * (2 * epsilon + 1) ** (2 * ell)


def count_i(ell, epsilon, u, n, x) -> BigCount:
    """Number of indexing-setting PLAs with the given parameters."""
    x = _validate_x(ell, epsilon, u, n, x)
    return conditional_count_i(ell, epsilon, u, n, x) * _comb(u - ell * (2 * epsilon - 1), ell)


def count_i_general(ell, epsilon, u, n) -> BigCount:
    """Indexing count made independent of the first keys by replacing each
    key gap with its minimum 2*epsilon."""
    _validate_x(ell, epsilon, u, n, None)
    return (
        _comb(u - ell * (2 * epsilon - 1), ell)
        * _comb(n - ell * (2 * epsilon - 1) - 1, ell - 1)
        * (2 * epsilon - 1) ** (ell - 1)
        * (2 * epsilon + 1) ** (2 * ell)
    )


def lower_bound_c(ell, epsilon, u, n, y, strict=True) -> float:
    """Minimum bits to represent any compression-setting PLA, term by term.

    With strict=False the counting formula's domain validation is skipped and terms
    whose binomial degenerates contribute zero; used when evaluating the
    bound at a measured effective error outside the construction domain.
    """
    if strict:
        y = _validate_y(ell, epsilon, u, n, y)
    else:
        y = tuple(y)
    total = _log2_comb_or_zero(n - ell - 1, ell - 1)
    total += _log2_comb_or_zero(u + ell - 1, ell)
    for i in range(ell - 1):
        total += math.log2(y[i + 1] - y[i] + 1)
    total += 2 * ell * math.log2(2 * epsilon + 1)
    return total


def lower_bound_i(ell, epsilon, u, n, x, strict=True) -> float:
    """Minimum bits to represent any indexing-setting PLA, term by term.

    strict=False as in lower_bound_c.
    """
    if strict:
        x = _validate_x(ell, epsilon, u, n, x)
    else:
        x = tuple(x)
    total = _log2_comb_or_zero(u - ell * (2 * epsilon - 1), ell)
    total += _log2_comb_or_zero(n - ell * (2 * epsilon - 1) - 1, ell - 1)
    for i in range(ell - 1):
        total += math.log2(x[i + 1] - x[i] - 1)
    total += 2 * ell * math.log2(2 * epsilon + 1)
    return total


def _log2_comb_or_zero(m: int, k: int) -> float:
    c = _comb(m, k)
    return log2_big(c) if c > 0 else 0.0


def _directory_bits(m: int) -> float:
    """m / log2(m)^2, the constant-time variants' directory term; 0 for m = 1,
    whose logarithm is 0 (a one-value sequence needs no directory)."""
    return m / math.log2(m) ** 2 if m > 1 else 0.0


def baseline_la_bits(ell, epsilon, u, n, variant="binary-search") -> float:
    """Space of the reference compression-setting storage scheme.

    The constant-time variant's directory term n / log2(n)^2 is taken as 0
    when n = 1.
    """
    if min(ell, u, n) < 1 or epsilon < 1:
        raise ValueError("parameters must be positive")
    eps_term = 2 * math.log2(2 * epsilon + 1)
    if variant == "binary-search":
        return ell * (2 * math.log2(u / ell) + math.log2(n / ell) + 6 + eps_term)
    if variant == "constant-time":
        return ell * (2 * math.log2(u / ell) + 4 + eps_term) + log2_binomial(n, ell) + _directory_bits(n)
    raise ValueError(f"unknown variant {variant!r}")


def baseline_pgm_bits(ell, epsilon, u, n, variant="binary-search") -> float:
    """Space of the reference indexing-setting storage scheme.

    The constant-time variant's directory term u / log2(u)^2 is taken as 0
    when u = 1.
    """
    if min(ell, u, n) < 1 or epsilon < 1:
        raise ValueError("parameters must be positive")
    base = 1.92 + math.log2(n * n / ell)
    if variant == "binary-search":
        return ell * (base + 2 * math.log2(u))
    if variant == "constant-time":
        return ell * (base + math.log2(u)) + log2_binomial(u, ell) + _directory_bits(u)
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class BoundReport:
    """Measured container size against the applicable lower bound."""

    setting: str
    mode: str
    ell: int
    epsilon: int
    epsilon_eff: int
    u: int
    n: int
    lower_bound_bits: float
    measured_bits: int
    total_bits: int
    redundancy_bits: float
    redundancy_per_segment: float
    baseline_bits: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def as_text(self) -> str:
        """One key=value line per scalar field, in declaration order, then
        the components and the baselines, each sorted by name."""
        lines = [f"{key}={val}" for key, val in self.as_dict().items() if not isinstance(val, dict)]
        lines += [f"component.{name}={val}" for name, val in sorted(self.components.items())]
        lines += [f"baseline.{name}={val}" for name, val in sorted(self.baseline_bits.items())]
        return "\n".join(lines)


def redundancy_report(budget: BitBudget, params: dict, setting: str) -> BoundReport:
    """Build a BoundReport from a measured budget and decoded parameters.

    `params` must carry ell, epsilon, epsilon_eff, u, n and the decoded
    first covered values (`y` for compression, `x` for indexing).  The
    lower bound and baselines are evaluated at the verified effective
    error.  `measured_bits` covers the data structure proper (everything
    except the fixed file envelope), `total_bits` the whole file.
    """
    ell, n, u = params["ell"], params["n"], params["u"]
    eps = params["epsilon"]
    eps_eff = max(1, params["epsilon_eff"])
    if setting == COMPRESSION:
        lb = lower_bound_c(ell, eps_eff, u, n, params["y"], strict=False)
        baselines = {
            "la_vector_binary_search": baseline_la_bits(ell, eps_eff, u, n, "binary-search"),
            "la_vector_constant_time": baseline_la_bits(ell, eps_eff, u, n, "constant-time"),
        }
    elif setting == INDEXING:
        lb = lower_bound_i(ell, eps_eff, u, n, params["x"], strict=False)
        baselines = {
            "pgm_binary_search": baseline_pgm_bits(ell, eps_eff, u, n, "binary-search"),
            "pgm_constant_time": baseline_pgm_bits(ell, eps_eff, u, n, "constant-time"),
        }
    else:
        raise ValueError(f"unknown setting {setting!r}")
    measured = budget.structure_bits
    red = measured - lb
    return BoundReport(
        setting=setting,
        mode=budget.mode,
        ell=ell,
        epsilon=eps,
        epsilon_eff=params["epsilon_eff"],
        u=u,
        n=n,
        lower_bound_bits=lb,
        measured_bits=measured,
        total_bits=budget.total_bits,
        redundancy_bits=red,
        redundancy_per_segment=red / ell,
        baseline_bits=baselines,
        components=dict(budget.components),
    )
