"""Adaptation-policy and weighting-scheme registries of the retrieval service.

The service selects its default adaptation policy and indicator weighting
scheme *by name* from a :class:`~repro.service.config.ServiceConfig`;
third parties extend the system by registering a factory under a new name:

>>> from repro.service import register_policy
>>> from repro.core import combined_policy
>>> register_policy("combined_heavy",
...                 lambda: combined_policy().with_overrides(implicit_weight=0.6))

The text scorer registry sits below the engine, in
:mod:`repro.index.registry`, and is re-exported here unchanged.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.policies import (
    AdaptationPolicy,
    baseline_policy,
    combined_policy,
    explicit_policy,
    full_policy,
    implicit_only_policy,
    profile_only_policy,
)
from repro.feedback.weighting import (
    WeightingScheme,
    binary_click_scheme,
    dwell_only_scheme,
    explicit_only_scheme,
    heuristic_scheme,
    uniform_scheme,
)
from repro.index.registry import (
    SCORER_REGISTRY,
    available_scorers,
    create_scorer,
    register_scorer,
)
from repro.utils.registry import ComponentRegistry, UnknownComponentError

__all__ = [
    "POLICY_REGISTRY",
    "SCORER_REGISTRY",
    "WEIGHTING_SCHEME_REGISTRY",
    "ComponentRegistry",
    "UnknownComponentError",
    "available_policies",
    "available_scorers",
    "available_weighting_schemes",
    "create_policy",
    "create_scorer",
    "create_weighting_scheme",
    "register_policy",
    "register_scorer",
    "register_weighting_scheme",
]

#: Adaptation policies: ``factory() -> AdaptationPolicy``.
POLICY_REGISTRY = ComponentRegistry("policy")

#: Indicator weighting schemes: ``factory() -> WeightingScheme``.
WEIGHTING_SCHEME_REGISTRY = ComponentRegistry("weighting scheme")


def register_policy(
    name: str, factory: Callable[[], AdaptationPolicy], *, overwrite: bool = False
) -> None:
    """Register an adaptation-policy factory ``() -> AdaptationPolicy``."""
    POLICY_REGISTRY.register(name, factory, overwrite=overwrite)


def register_weighting_scheme(
    name: str, factory: Callable[[], WeightingScheme], *, overwrite: bool = False
) -> None:
    """Register a weighting-scheme factory ``() -> WeightingScheme``."""
    WEIGHTING_SCHEME_REGISTRY.register(name, factory, overwrite=overwrite)


def create_policy(name: str) -> AdaptationPolicy:
    """Build the adaptation policy registered under ``name``."""
    return POLICY_REGISTRY.create(name)


def create_weighting_scheme(name: str) -> WeightingScheme:
    """Build the weighting scheme registered under ``name``."""
    return WEIGHTING_SCHEME_REGISTRY.create(name)


def available_policies() -> List[str]:
    """Names of all registered adaptation policies."""
    return POLICY_REGISTRY.names()


def available_weighting_schemes() -> List[str]:
    """Names of all registered weighting schemes."""
    return WEIGHTING_SCHEME_REGISTRY.names()


# -- built-in components ---------------------------------------------------------

register_policy("baseline", baseline_policy)
register_policy("profile", profile_only_policy)
register_policy("profile_only", profile_only_policy)
register_policy("implicit", implicit_only_policy)
register_policy("implicit_only", implicit_only_policy)
register_policy("explicit", explicit_policy)
register_policy("combined", combined_policy)
register_policy("full", full_policy)

register_weighting_scheme("uniform", uniform_scheme)
register_weighting_scheme("binary_click", binary_click_scheme)
register_weighting_scheme("heuristic", heuristic_scheme)
register_weighting_scheme("dwell_only", dwell_only_scheme)
register_weighting_scheme("explicit_only", explicit_only_scheme)
