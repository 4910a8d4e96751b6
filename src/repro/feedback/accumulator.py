"""Accumulating implicit evidence over a session.

The accumulator is the bridge between raw interaction events and the
adaptive retrieval model: it applies an :class:`IndicatorExtractor` and a
:class:`WeightingScheme` to every incoming event and maintains a per-shot
evidence mass.  Accumulation is delegated to an
:class:`~repro.core.ostensive.OstensiveAccumulator`, so every discount
profile of the ostensive model (Campbell & van Rijsbergen) is supported:

* *uniform* — evidence simply adds up over the session (static
  accumulation, the historical ``decay=1.0`` behaviour);
* *exponential* — older evidence is discounted by ``decay`` per batch via
  an in-place running fold (the historical ``decay < 1.0`` behaviour);
* *reciprocal* / *linear* — per-age discount factors that cannot fold into
  a running total; the per-batch partial sums are retained and combined
  lazily (cached between batches).

Evidence maintenance is O(batch) per observation and O(1) per read between
observations; the accumulator also maintains a content *digest* (the memo
key for the :class:`~repro.core.feedback_model.ImplicitFeedbackModel`
caches) and the total positive evidence mass, both invalidated per batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.feedback.events import InteractionEvent
from repro.feedback.indicators import IndicatorExtractor
from repro.feedback.weighting import WeightingScheme, heuristic_scheme
from repro.utils.validation import ensure_in_range


class EvidenceAccumulator:
    """Maintains per-shot relevance evidence as events arrive.

    Parameters
    ----------
    scheme:
        The indicator weighting scheme converting indicator strengths into
        evidence increments.
    extractor:
        Turns events into indicator observations.
    decay:
        Ostensive discount factor in ``(0, 1]`` applied to *all existing*
        evidence whenever a new batch of events arrives: 1.0 reproduces
        static accumulation, smaller values privilege recent evidence.
        When ``discount_profile`` is ``"exponential"`` this is the decay
        base; the other profiles ignore it.
    shot_durations:
        Optional shot durations used to normalise play-progress events.
        Held **by reference** (not copied) so a corpus-wide mapping can be
        shared across sessions; treat it as read-only.
    discount_profile:
        Optional ostensive discount profile name (one of
        :data:`~repro.core.ostensive.DISCOUNT_PROFILES`).  ``None`` derives
        the profile from ``decay`` (1.0 → uniform, otherwise exponential),
        which reproduces the historical behaviour exactly.
    horizon:
        Horizon of the ``linear`` profile (iterations until the factor
        reaches zero).
    """

    def __init__(
        self,
        scheme: Optional[WeightingScheme] = None,
        extractor: Optional[IndicatorExtractor] = None,
        decay: float = 1.0,
        shot_durations: Optional[Mapping[str, float]] = None,
        discount_profile: Optional[str] = None,
        horizon: int = 6,
    ) -> None:
        self._scheme = scheme or heuristic_scheme()
        self._extractor = extractor or IndicatorExtractor()
        self._decay = ensure_in_range(decay, 0.0, 1.0, "decay")
        if self._decay == 0.0:
            raise InvalidArgumentError("decay must be greater than 0")
        self._shot_durations: Mapping[str, float] = (
            shot_durations if shot_durations is not None else {}
        )
        if discount_profile is None:
            discount_profile = "uniform" if self._decay == 1.0 else "exponential"
        self._profile = discount_profile
        # Imported here, not at module level: repro.core.adaptive imports
        # this module, and importing repro.core.ostensive initialises the
        # repro.core package, which would close the cycle mid-import.
        from repro.core.ostensive import OstensiveAccumulator

        # The ostensive fold keeps no dead history (running totals are the
        # whole state for uniform/exponential, linear only needs `horizon`
        # ages), so a long-lived serving session is O(evidence), not
        # O(batches).
        self._ostensive = OstensiveAccumulator.for_profile(
            discount_profile, base=self._decay, horizon=horizon
        )
        self._event_count = 0
        self._batch_index = 0
        # Per-batch caches, dropped by every observed batch.
        self._digest_cache: Optional[Tuple[Tuple[str, float], ...]] = None
        self._positive_mass_cache: Optional[float] = None

    # -- configuration -----------------------------------------------------------

    @property
    def scheme(self) -> WeightingScheme:
        """The weighting scheme in use."""
        return self._scheme

    @property
    def decay(self) -> float:
        """The ostensive discount factor (1.0 = static accumulation)."""
        return self._decay

    @property
    def discount_profile(self) -> str:
        """The ostensive discount profile in force."""
        return self._profile

    @property
    def event_count(self) -> int:
        """Number of events observed so far."""
        return self._event_count

    @property
    def version(self) -> int:
        """Monotonic counter ticking on every observed batch.

        The evidence (and therefore its digest and positive mass) can only
        change when the version does, which is what makes the per-batch
        caches below safe to serve between observations.
        """
        return self._batch_index

    # -- accumulation ---------------------------------------------------------------

    def observe(self, event: InteractionEvent) -> None:
        """Observe a single event (its own decay step)."""
        self.observe_batch([event])

    def observe_batch(self, events: Iterable[InteractionEvent]) -> None:
        """Observe a batch of events, applying one ostensive decay step first.

        A "batch" is typically everything that happened since the previous
        query iteration; decaying per batch rather than per event makes the
        discount correspond to *iterations back in time*, which is how the
        ostensive model is usually formulated.
        """
        events = list(events)
        if not events:
            return
        per_shot = self._extractor.per_shot_indicator_strengths(
            events, self._shot_durations
        )
        increments = self._scheme.evidence_map(per_shot)
        self._ostensive.observe_iteration(increments)
        self._event_count += len(events)
        self._batch_index += 1
        self._digest_cache = None
        self._positive_mass_cache = None

    # -- reading the evidence ----------------------------------------------------------

    def evidence(self) -> Dict[str, float]:
        """A copy of the current per-shot evidence."""
        return dict(self.evidence_view())

    def evidence_view(self) -> Mapping[str, float]:
        """The current per-shot evidence **without copying**.

        The returned mapping is internal state: treat it as read-only and
        do not hold it across an :meth:`observe_batch`.  Used on the
        per-query hot path, where the defensive copy of :meth:`evidence`
        is pure overhead.
        """
        return self._ostensive.weighted_evidence_view()

    def evidence_digest(self) -> Tuple[Tuple[str, float], ...]:
        """A content digest of the current evidence (cached per batch).

        The digest is the evidence items *in insertion order* — order is
        part of the identity because downstream consumers fold the mapping
        in iteration order, so equal content in a different order is not
        guaranteed to produce bit-identical floats.  Two sessions that
        observed the same history produce the same digest, which is what
        lets them share :class:`~repro.core.feedback_model.
        ImplicitFeedbackModel` memo entries.
        """
        if self._digest_cache is None:
            self._digest_cache = tuple(self.evidence_view().items())
        return self._digest_cache

    def positive_evidence(self) -> Dict[str, float]:
        """Only the shots with strictly positive evidence."""
        return {shot_id: mass for shot_id, mass in self.evidence_view().items() if mass > 0}

    def negative_evidence(self) -> Dict[str, float]:
        """Only the shots with strictly negative evidence."""
        return {shot_id: mass for shot_id, mass in self.evidence_view().items() if mass < 0}

    def positive_mass(self) -> float:
        """Total strictly-positive evidence mass (cached per batch)."""
        if self._positive_mass_cache is None:
            self._positive_mass_cache = sum(self.positive_evidence().values())
        return self._positive_mass_cache

    def top_shots(self, count: int = 10) -> List[Tuple[str, float]]:
        """The ``count`` shots with the most positive evidence."""
        ranked = sorted(
            self.positive_evidence().items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:count]

    def evidence_for(self, shot_id: str) -> float:
        """Evidence mass for one shot (0 if never observed)."""
        return self.evidence_view().get(shot_id, 0.0)

    def reset(self) -> None:
        """Forget everything (start of a new session)."""
        self._ostensive.reset()
        self._event_count = 0
        self._batch_index = 0
        self._digest_cache = None
        self._positive_mass_cache = None

    def __len__(self) -> int:
        return len(self.evidence_view())
