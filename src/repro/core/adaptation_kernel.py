"""The per-query adaptation pipeline's corpus lookups and dense fold.

The adaptive loop — fold profile affinity and implicit evidence into every
ranking — is the serving hot path: it runs once per query for every session
of every user.

* :class:`SharedAdaptationState` holds the corpus-derived immutables every
  session needs (shot durations for dwell normalisation, per-shot category
  and concept lookups for profile affinity and gating).  It is built
  **once** per :class:`~repro.core.adaptive.AdaptiveVideoRetrievalSystem`
  and handed to sessions by reference, which is what makes session
  construction O(1) instead of O(corpus).
* :class:`DenseScratch` plus :func:`rerank_and_demote` fuse the
  evidence-interpolation and seen-shot-demotion folds into one pass over a
  flat ``array('d')`` buffer indexed by the inverted index's slots (see
  :mod:`repro.index.slots`; stamp-validated, so no O(corpus) zeroing
  between queries), converting back to ``(score, shot_id)`` pairs only at
  the fusion boundary where the final
  :class:`~repro.retrieval.results.ResultList` is built.  Shot ids that
  were never indexed (feedback on alien ids) fall back to a small overflow
  map.

The test suite pins both folds bit for bit to naive references in
``tests/reference/adaptation.py``: per-shot affinity read from the
collection's shot objects, and :func:`~repro.retrieval.reranking.
rerank_with_scores` followed by a separate demotion pass.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.collection.documents import Collection
from repro.index.fusion import normalisation_bounds_of_values
from repro.index.inverted_index import InvertedIndex
from repro.profiles.profile import UserProfile
from repro.retrieval.results import ResultList


class SharedAdaptationState:
    """Corpus-derived immutables shared by every session of one system.

    Built once from the collection (which is immutable after corpus load;
    live index mutation adds *documents*, not collection shots) and shared
    by reference: sessions must treat every mapping as read-only.
    """

    __slots__ = ("shot_durations", "shot_categories", "shot_concepts")

    def __init__(
        self,
        shot_durations: Mapping[str, float],
        shot_categories: Mapping[str, str],
        shot_concepts: Mapping[str, Tuple[str, ...]],
    ) -> None:
        self.shot_durations = shot_durations
        self.shot_categories = shot_categories
        self.shot_concepts = shot_concepts

    @classmethod
    def build(cls, collection: Collection) -> "SharedAdaptationState":
        """One pass over the collection building every per-shot lookup."""
        durations: Dict[str, float] = {}
        categories: Dict[str, str] = {}
        concepts: Dict[str, Tuple[str, ...]] = {}
        for shot in collection.iter_shots():
            shot_id = shot.shot_id
            durations[shot_id] = shot.duration
            categories[shot_id] = shot.category
            concepts[shot_id] = tuple(shot.concepts)
        return cls(durations, categories, concepts)


def profile_affinity_shared(
    profile: UserProfile,
    state: SharedAdaptationState,
    shot_ids: Iterable[str],
) -> Dict[str, float]:
    """Profile affinity scores over shared per-shot lookups.

    A shot's affinity is the profile's interest in its category plus 0.25
    times its interest in each of the shot's concepts, added in concept
    order; shots the collection does not know and shots with no positive
    affinity get no score.
    """
    scores: Dict[str, float] = {}
    categories = state.shot_categories
    concepts_by_shot = state.shot_concepts
    category_interest = profile.interest_in_category
    concept_interest = profile.interest_in_concept
    for shot_id in shot_ids:
        category = categories.get(shot_id)
        if category is None:
            continue
        affinity = category_interest(category)
        for concept in concepts_by_shot[shot_id]:
            affinity += 0.25 * concept_interest(concept)
        if affinity > 0:
            scores[shot_id] = affinity
    return scores


class DenseScratch:
    """Reusable dense accumulation buffer over an index's slots.

    ``values`` holds per-document partial scores; ``stamps`` marks which
    entries belong to the current pass (a monotonically increasing token),
    so a query touches only its own documents and nothing is ever zeroed.
    One scratch belongs to one session — sessions are serialised by the
    service's per-session locks, so the buffer is never shared across
    threads.
    """

    __slots__ = ("values", "stamps", "token")

    def __init__(self) -> None:
        self.values = array("d")
        self.stamps = array("q")
        self.token = 0

    def begin(self, size: int) -> int:
        """Start a pass over an index of ``size`` slots; returns the pass
        token."""
        if len(self.values) < size:
            grow = size - len(self.values)
            self.values.extend([0.0] * grow)
            self.stamps.extend([0] * grow)
        self.token += 1
        return self.token


def rerank_and_demote(
    results: ResultList,
    evidence_scores: Mapping[str, float],
    weight: float,
    seen_shot_ids,
    penalty: float,
    collection: Optional[Collection],
    index: InvertedIndex,
    scratch: DenseScratch,
) -> ResultList:
    """Fused evidence interpolation + seen-shot demotion.

    Two folds, in one dense pass and with a single final
    :class:`ResultList` construction:

    1. interpolation — ``(1 - weight) * normalised(score) + weight *
       normalised(evidence)`` over the union of the ranked shots and the
       evidence, min-max normalised, cut to the top ``len(results)``;
    2. demotion — the survivors' scores min-max normalised again, each
       seen shot's multiplied by ``1 - penalty``.

    Either fold may be disabled: empty ``evidence_scores`` skips
    interpolation, ``penalty == 0`` (or no seen shots) skips demotion.
    """
    apply_evidence = bool(evidence_scores)
    apply_demote = penalty > 0.0 and bool(seen_shot_ids)
    if not apply_evidence and not apply_demote:
        return results

    result_limit = len(results)
    if apply_evidence:
        # Interpolation: (1 - w) * normalised(original) + w * normalised(evidence)
        # over the union of both maps, into the dense buffer.
        # Sized by slots, not live documents: a tombstoned slot keeps its
        # number, so live slots can lie past the live count.
        slots = index.slots
        token = scratch.begin(slots.slot_count)
        values = scratch.values
        stamps = scratch.stamps
        slot_of = slots.get
        touched: list = []
        overflow: Dict[str, float] = {}
        items = results.items
        if items:
            low, span = normalisation_bounds_of_values([item.score for item in items])
            primary_weight = 1.0 - weight
            for item in items:
                if span == 0.0:
                    contribution = primary_weight * 1.0
                else:
                    contribution = primary_weight * ((item.score - low) / span)
                doc = slot_of(item.shot_id)
                if doc is None:
                    overflow[item.shot_id] = contribution
                else:
                    values[doc] = contribution
                    stamps[doc] = token
                    touched.append(doc)
        low, span = normalisation_bounds_of_values(evidence_scores.values())
        for shot_id, value in evidence_scores.items():
            if span == 0.0:
                contribution = weight * 1.0
            else:
                contribution = weight * ((value - low) / span)
            doc = slot_of(shot_id)
            if doc is None:
                if shot_id in overflow:
                    overflow[shot_id] += contribution
                else:
                    overflow[shot_id] = contribution
            elif stamps[doc] == token:
                values[doc] += contribution
            else:
                values[doc] = contribution
                stamps[doc] = token
                touched.append(doc)
        ids = slots.ids
        decorated = [(-values[doc], ids[doc]) for doc in touched]
        if overflow:
            decorated.extend((-value, shot_id) for shot_id, value in overflow.items())
        if not apply_demote:
            return ResultList.from_decorated(
                query_text=results.query_text,
                decorated=decorated,
                collection=collection,
                limit=result_limit,
                topic_id=results.topic_id,
            )
        # Demotion only ever sees the top ``result_limit`` entries of the
        # interpolated ranking (the same selection from_decorated applies).
        if len(decorated) > 4 * result_limit:
            decorated = heapq.nsmallest(result_limit, decorated)
        else:
            decorated.sort()
            decorated = decorated[:result_limit]
        ranked = [(shot_id, -negated) for negated, shot_id in decorated]
    else:
        ranked = [(item.shot_id, item.score) for item in results.items]

    # Demotion: min-max normalise, scale seen shots by (1 - penalty).
    if not ranked:
        return results
    seen = set(seen_shot_ids)
    low, span = normalisation_bounds_of_values([score for _, score in ranked])
    span = span or 1.0
    decorated = []
    for shot_id, score in ranked:
        normalised = (score - low) / span
        if shot_id in seen:
            normalised *= 1.0 - penalty
        decorated.append((-normalised, shot_id))
    return ResultList.from_decorated(
        query_text=results.query_text,
        decorated=decorated,
        collection=collection,
        limit=len(ranked),
        topic_id=results.topic_id,
    )
