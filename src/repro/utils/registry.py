"""String-keyed component registries.

Configs select pluggable components — text scorers, adaptation policies
and indicator weighting schemes — *by name*, so every entry point (CLI,
examples, benchmarks, tests) shares one wiring path instead of importing
and assembling classes by hand.  The scorer registry lives in
:mod:`repro.index.registry`, the policy and weighting-scheme registries in
:mod:`repro.service.registry`.

Unknown names raise :class:`UnknownComponentError`, which lists the
registered alternatives so configuration typos fail loudly and helpfully.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import InvalidArgumentError


class UnknownComponentError(KeyError, InvalidArgumentError):
    """Raised when a config names a component that was never registered.

    A ``KeyError`` (the lookup missed) and an :class:`InvalidArgumentError`
    (the name came from outside the program).
    """

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
            raise InvalidArgumentError(f"{self._kind} name must be non-empty")
        if not callable(factory):
            raise TypeError(f"{self._kind} factory for {name!r} must be callable")
        if name in self._factories and not overwrite:
            raise InvalidArgumentError(
                f"{self._kind} {name!r} is already registered; pass overwrite=True to replace it"
            )
        self._factories[name] = factory

    def unregister(self, name: str) -> None:
        """Remove a registered name (no-op if absent)."""
        self._factories.pop(name, None)

    def ensure_registered(self, name: str) -> None:
        """Refuse a name that was never registered, listing the ones that were."""
        if name not in self._factories:
            raise UnknownComponentError(self._kind, name, self.names())

    def create(self, name: str, *args, **kwargs):
        """Instantiate the component registered under ``name``."""
        self.ensure_registered(name)
        return self._factories[name](*args, **kwargs)

    def names(self) -> List[str]:
        """The registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories
