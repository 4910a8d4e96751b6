"""Statistical significance tests for paired per-topic metrics.

Interactive-retrieval papers report whether a system's improvement over a
baseline is significant across topics.  Two paired tests are provided:
the paired t-test (parametric) and the sign-flip randomisation test
(distribution-free, the safer choice for small topic sets).  Implementations
are dependency-light; ``scipy`` is deliberately not required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import InvalidArgumentError
from repro.utils.rng import RandomSource


@dataclass(frozen=True)
class TestResult:
    """Result of a paired significance test."""

    statistic: float
    p_value: float
    mean_difference: float
    sample_size: int

    def significant(self, alpha: float = 0.05) -> bool:
        """True if the p-value is below ``alpha``."""
        return self.p_value < alpha


def _validate_pairs(baseline: Sequence[float], treatment: Sequence[float]) -> None:
    if len(baseline) != len(treatment):
        raise InvalidArgumentError(
            f"paired samples must have equal length, got {len(baseline)} and {len(treatment)}"
        )
    if len(baseline) < 2:
        raise InvalidArgumentError("need at least two paired observations")


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _student_t_sf(t: float, df: int) -> float:
    """Survival function of Student's t via numerical integration.

    Accurate to a few decimal places for the degrees of freedom seen in
    topic-level evaluations (10-100), which is all significance reporting
    needs here.
    """
    if df <= 0:
        raise InvalidArgumentError("degrees of freedom must be positive")
    if df > 200:
        return 1.0 - _normal_cdf(t)

    # Integrate the t density from |t| to a large bound with Simpson's rule.
    def density(x: float) -> float:
        coefficient = math.gamma((df + 1) / 2.0) / (
            math.sqrt(df * math.pi) * math.gamma(df / 2.0)
        )
        return coefficient * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    upper = abs(t) + 60.0
    steps = 4000
    width = (upper - abs(t)) / steps
    total = density(abs(t)) + density(upper)
    for index in range(1, steps):
        x = abs(t) + index * width
        total += density(x) * (4 if index % 2 else 2)
    return total * width / 3.0


def paired_t_test(baseline: Sequence[float], treatment: Sequence[float]) -> TestResult:
    """Two-sided paired t-test on per-topic metric values."""
    _validate_pairs(baseline, treatment)
    differences = [t - b for b, t in zip(baseline, treatment)]
    n = len(differences)
    mean = sum(differences) / n
    variance = sum((d - mean) ** 2 for d in differences) / (n - 1)
    if variance == 0:
        p_value = 0.0 if mean != 0 else 1.0
        return TestResult(
            statistic=float("inf") if mean != 0 else 0.0,
            p_value=p_value,
            mean_difference=mean,
            sample_size=n,
        )
    statistic = mean / math.sqrt(variance / n)
    p_value = 2.0 * _student_t_sf(abs(statistic), n - 1)
    return TestResult(
        statistic=statistic,
        p_value=min(1.0, p_value),
        mean_difference=mean,
        sample_size=n,
    )


def randomisation_test(
    baseline: Sequence[float],
    treatment: Sequence[float],
    iterations: int = 5000,
    seed: int = 1234,
) -> TestResult:
    """Two-sided sign-flip randomisation test on paired per-topic values."""
    _validate_pairs(baseline, treatment)
    differences = [t - b for b, t in zip(baseline, treatment)]
    observed = abs(sum(differences) / len(differences))
    rng = RandomSource(seed).spawn("randomisation")
    at_least_as_extreme = 0
    for _ in range(iterations):
        total = 0.0
        for difference in differences:
            total += difference if rng.boolean(0.5) else -difference
        if abs(total / len(differences)) >= observed - 1e-12:
            at_least_as_extreme += 1
    p_value = (at_least_as_extreme + 1) / (iterations + 1)
    return TestResult(
        statistic=observed,
        p_value=p_value,
        mean_difference=sum(differences) / len(differences),
        sample_size=len(differences),
    )


def compare_per_topic(
    baseline: Dict[str, float], treatment: Dict[str, float], method: str = "randomisation"
) -> TestResult:
    """Compare two per-topic metric dictionaries on their shared topics."""
    shared = sorted(set(baseline) & set(treatment))
    if len(shared) < 2:
        raise InvalidArgumentError("need at least two shared topics to compare")
    baseline_values = [baseline[topic_id] for topic_id in shared]
    treatment_values = [treatment[topic_id] for topic_id in shared]
    if method == "t-test":
        return paired_t_test(baseline_values, treatment_values)
    if method == "randomisation":
        return randomisation_test(baseline_values, treatment_values)
    raise InvalidArgumentError(
        f"unknown method {method!r}; expected 't-test' or 'randomisation'"
    )
