"""String-keyed component registries for the retrieval service.

The service selects its pluggable components — text scorers, adaptation
policies and indicator weighting schemes — *by name* from a
:class:`~repro.service.config.ServiceConfig`, so that every entry point
(CLI, examples, benchmarks, tests) shares one wiring path instead of
importing and assembling classes by hand.  Third parties extend the system
by registering a factory under a new name:

>>> from repro.service import register_policy
>>> from repro.core import combined_policy
>>> register_policy("combined_heavy",
...                 lambda: combined_policy().with_overrides(implicit_weight=0.6))

Unknown names raise :class:`UnknownComponentError`, which lists the
registered alternatives so configuration typos fail loudly and helpfully.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.policies import (
    AdaptationPolicy,
    baseline_policy,
    combined_policy,
    explicit_policy,
    full_policy,
    implicit_only_policy,
    profile_only_policy,
)
from repro.errors import ReproError
from repro.feedback.weighting import (
    WeightingScheme,
    binary_click_scheme,
    dwell_only_scheme,
    explicit_only_scheme,
    heuristic_scheme,
    uniform_scheme,
)
from repro.index.inverted_index import InvertedIndex
from repro.index.language_model import DirichletLanguageModelScorer
from repro.index.scoring import Bm25Scorer, TextScorer, TfIdfScorer


class UnknownComponentError(KeyError, ReproError):
    """Raised when a config names a component that was never registered."""

    def __init__(self, kind: str, name: str, available: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = list(available)
        super().__init__(
            f"unknown {kind} {name!r}; registered {kind} names: "
            + (", ".join(sorted(available)) or "(none)")
        )

    def __str__(self) -> str:  # KeyError quotes its argument; keep the message readable
        return self.args[0]


class ComponentRegistry:
    """A named mapping from string keys to component factories."""

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._factories: Dict[str, Callable] = {}

    @property
    def kind(self) -> str:
        """What kind of component this registry holds (for error messages)."""
        return self._kind

    def register(self, name: str, factory: Callable, *, overwrite: bool = False) -> None:
        """Register a factory under a name.

        Re-registering an existing name requires ``overwrite=True`` so that
        accidental collisions between extensions fail fast.
        """
        if not name:
            raise ValueError(f"{self._kind} name must be non-empty")
        if not callable(factory):
            raise TypeError(f"{self._kind} factory for {name!r} must be callable")
        if name in self._factories and not overwrite:
            raise ValueError(
                f"{self._kind} {name!r} is already registered; pass overwrite=True to replace it"
            )
        self._factories[name] = factory

    def unregister(self, name: str) -> None:
        """Remove a registered name (no-op if absent)."""
        self._factories.pop(name, None)

    def create(self, name: str, *args, **kwargs):
        """Instantiate the component registered under ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise UnknownComponentError(self._kind, name, self.names()) from None
        return factory(*args, **kwargs)

    def names(self) -> List[str]:
        """The registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


#: Text scorers: ``factory(inverted_index, service_config) -> TextScorer``.
SCORER_REGISTRY = ComponentRegistry("scorer")

#: Adaptation policies: ``factory() -> AdaptationPolicy``.
POLICY_REGISTRY = ComponentRegistry("policy")

#: Indicator weighting schemes: ``factory() -> WeightingScheme``.
WEIGHTING_SCHEME_REGISTRY = ComponentRegistry("weighting scheme")


def register_scorer(
    name: str,
    factory: Callable[[InvertedIndex, "object"], TextScorer],
    *,
    overwrite: bool = False,
) -> None:
    """Register a text scorer factory ``(inverted_index, config) -> TextScorer``."""
    SCORER_REGISTRY.register(name, factory, overwrite=overwrite)


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


def create_scorer(name: str, inverted_index: InvertedIndex, config) -> TextScorer:
    """Build the scorer registered under ``name``."""
    return SCORER_REGISTRY.create(name, inverted_index, config)


def create_policy(name: str) -> AdaptationPolicy:
    """Build the adaptation policy registered under ``name``."""
    return POLICY_REGISTRY.create(name)


def create_weighting_scheme(name: str) -> WeightingScheme:
    """Build the weighting scheme registered under ``name``."""
    return WEIGHTING_SCHEME_REGISTRY.create(name)


def available_scorers() -> List[str]:
    """Names of all registered scorers."""
    return SCORER_REGISTRY.names()


def available_policies() -> List[str]:
    """Names of all registered adaptation policies."""
    return POLICY_REGISTRY.names()


def available_weighting_schemes() -> List[str]:
    """Names of all registered weighting schemes."""
    return WEIGHTING_SCHEME_REGISTRY.names()


# -- built-in components ---------------------------------------------------------

register_scorer(
    "bm25", lambda index, config: Bm25Scorer(index, k1=config.bm25_k1, b=config.bm25_b)
)
register_scorer("tfidf", lambda index, config: TfIdfScorer(index))
register_scorer(
    "lm", lambda index, config: DirichletLanguageModelScorer(index, mu=config.lm_mu)
)

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
