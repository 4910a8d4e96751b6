"""Turning accumulated implicit evidence into retrieval evidence.

The :class:`ImplicitFeedbackModel` converts per-shot evidence mass (from the
accumulator) into the two things the retrieval engine can actually use:

* a set of weighted *expansion terms* extracted from the transcripts of
  positively-judged shots, and
* a *re-ranking score map* over shots, optionally propagated to visually
  similar shots (a user who liked a shot probably also likes shots that look
  like it — the video-specific twist implicit feedback gains over text).

Both derivations are **memoised** on an evidence digest, in a memo that
lives for one generation pair of the two indexes (a
:class:`~repro.index.slots.PerGeneration` value): between two queries
whose evidence did not change —
the common case whenever a user reformulates, pages or refreshes without
giving new feedback — the model costs two dictionary lookups instead of a
term extraction and an evidence fold.  This memo owns *what one body of
evidence turns into*; it is keyed on the whole digest, so any new feedback
misses it.  *Which shots are nearest to a shot* depends on neither the
evidence nor the user and is not this memo's to save: the visual index's
:class:`~repro.index.visual.NeighbourTable` owns it, shared by every
session, and :meth:`rerank_scores_uncached` reaches it through
``similar_to_shot`` whether this memo hit or missed — a miss here costs a
fold over table look-ups, not a similarity walk.

The digest preserves evidence *insertion order* (see
:meth:`~repro.feedback.accumulator.EvidenceAccumulator.evidence_digest`)
because the folds below are order-sensitive in the last ulp; a write to
either index drops the whole memo on the next read.  The cache is
bounded, LRU and thread-safe (one model instance is shared by all sessions
under the same policy).  :meth:`expansion_term_weights_uncached` and
:meth:`rerank_scores_uncached` are the memo's compute functions; callers
whose evidence is rebuilt per call (session recommendations, the news
recommender) call the latter directly rather than churn the memo.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

from repro.index.inverted_index import InvertedIndex
from repro.index.slots import PerGeneration
from repro.index.visual import VisualIndex
from repro.retrieval.expansion import extract_key_terms
from repro.utils.validation import ensure_in_range, ensure_number, ensure_positive

#: Digest type: evidence items in insertion order.
EvidenceDigest = Tuple[Tuple[str, float], ...]


class ImplicitFeedbackModel:
    """Derives query expansion and re-ranking evidence from implicit feedback."""

    def __init__(
        self,
        inverted_index: InvertedIndex,
        visual_index: Optional[VisualIndex] = None,
        expansion_terms: int = 10,
        visual_propagation: float = 0.2,
        propagation_neighbours: int = 5,
        cache_size: int = 128,
    ) -> None:
        self._index = inverted_index
        self._visual = visual_index
        self._expansion_terms = expansion_terms
        self._propagation = ensure_in_range(
            visual_propagation, 0.0, 1.0, "visual_propagation"
        )
        self._neighbours = ensure_positive(propagation_neighbours, "propagation_neighbours")
        self._cache_size = ensure_number(cache_size, "cache_size", integer=True)
        clock = (inverted_index,) if visual_index is None else (inverted_index, visual_index)
        self._cache: "PerGeneration[OrderedDict[Tuple, Dict[str, float]]]" = (
            PerGeneration(clock, OrderedDict)
        )
        self._cache_lock = threading.Lock()

    # -- memoisation ------------------------------------------------------------

    def _memoised(
        self,
        kind: str,
        shot_evidence: Mapping[str, float],
        digest: Optional[EvidenceDigest],
        compute,
    ) -> Dict[str, float]:
        if self._cache_size == 0:
            return compute(shot_evidence)
        if digest is None:
            digest = tuple(shot_evidence.items())
        key = (kind, digest)
        # Fetched once: a result computed across a write lands in the memo
        # of the generation it started in, which is never served again.
        with self._cache_lock:
            memo = self._cache.get()
            cached = memo.get(key)
            if cached is not None:
                memo.move_to_end(key)
                # Callers mutate the returned map (explicit-evidence folds,
                # seen-shot pops), so hand out a copy, never the cache entry.
                return dict(cached)
        result = compute(shot_evidence)
        with self._cache_lock:
            memo[key] = dict(result)
            memo.move_to_end(key)
            while len(memo) > self._cache_size:
                memo.popitem(last=False)
        return result

    def cache_info(self) -> Dict[str, int]:
        """Current memo-cache occupancy (for tests and reports)."""
        with self._cache_lock:
            return {"entries": len(self._cache.get()), "capacity": self._cache_size}

    # -- query expansion --------------------------------------------------------

    def expansion_term_weights(
        self,
        shot_evidence: Mapping[str, float],
        digest: Optional[EvidenceDigest] = None,
    ) -> Dict[str, float]:
        """Weighted expansion terms from positively-judged shots (memoised).

        ``digest`` is an optional precomputed evidence digest (the
        accumulator maintains one); without it the digest is derived from
        the mapping's items in iteration order.
        """
        return self._memoised(
            "expansion", shot_evidence, digest, self.expansion_term_weights_uncached
        )

    def expansion_term_weights_uncached(
        self, shot_evidence: Mapping[str, float]
    ) -> Dict[str, float]:
        """The un-memoised expansion derivation (the memo's compute function).

        Terms are extracted with evidence-weighted TF-IDF offer weights; the
        number of terms is bounded by the model's ``expansion_terms``.
        Returns an empty mapping when there is no positive evidence or
        expansion is disabled.
        """
        if self._expansion_terms <= 0:
            return {}
        positive = {
            shot_id: mass for shot_id, mass in shot_evidence.items() if mass > 0
        }
        if not positive:
            return {}
        return extract_key_terms(
            self._index,
            list(positive),
            limit=self._expansion_terms,
            document_weights=positive,
        )

    # -- re-ranking evidence ---------------------------------------------------------

    def rerank_scores(
        self,
        shot_evidence: Mapping[str, float],
        digest: Optional[EvidenceDigest] = None,
    ) -> Dict[str, float]:
        """Per-shot re-ranking scores derived from the evidence (memoised).

        The returned mapping is the caller's to mutate; see
        :meth:`rerank_scores_uncached` for the derivation.
        """
        return self._memoised(
            "rerank", shot_evidence, digest, self.rerank_scores_uncached
        )

    def rerank_scores_uncached(
        self, shot_evidence: Mapping[str, float]
    ) -> Dict[str, float]:
        """The un-memoised re-ranking derivation (the memo's compute function).

        Positive evidence is propagated to visually similar shots with the
        configured propagation weight; negative evidence stays on the shot
        it was observed on (we have no grounds to generalise disinterest).
        """
        scores: Dict[str, float] = {}
        for shot_id, mass in shot_evidence.items():
            scores[shot_id] = scores.get(shot_id, 0.0) + mass
        if self._visual is None or self._propagation <= 0.0:
            return scores
        for shot_id, mass in shot_evidence.items():
            if mass <= 0 or not self._visual.has_shot(shot_id):
                continue
            for neighbour_id, similarity in self._visual.similar_to_shot(
                shot_id, limit=self._neighbours
            ):
                propagated = self._propagation * mass * max(0.0, similarity)
                if propagated > 0:
                    scores[neighbour_id] = scores.get(neighbour_id, 0.0) + propagated
        return scores

    # -- introspection -----------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Configuration summary for experiment reports."""
        return {
            "expansion_terms": self._expansion_terms,
            "visual_propagation": self._propagation,
            "propagation_neighbours": self._neighbours,
            "has_visual_index": self._visual is not None,
            "cache_size": self._cache_size,
        }
