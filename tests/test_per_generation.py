"""State derived per index generation: the one cell and every consumer of it.

:class:`~repro.index.slots.PerGeneration` is the only code that remembers
a generation.  The contract pinned here holds for every value kept in one:
with no write the same object is served, a write makes the next read
build a new one, and a pickle round-trip carries no derived value.  The
result cache's rule — a search evaluated across a write is never served —
is pinned separately, with a mutant that breaks it.
"""

from __future__ import annotations

import inspect
import pickle
import textwrap

import pytest

from repro.core.feedback_model import ImplicitFeedbackModel
from repro.index import Bm25Scorer, InvertedIndex, TfIdfScorer, VisualIndex
from repro.index.scoring import TextScorer
from repro.index.slots import PerGeneration
from repro.retrieval import EngineConfig, Query, VideoRetrievalEngine
from repro.retrieval import engine as engine_module

DOCUMENTS = {
    "d1": "football match stadium goal goal",
    "d2": "football politics debate parliament",
    "d3": "weather rain cloud forecast",
    "d4": "stadium crowd goal celebration football",
}
SHOTS = {"s1": (1.0, 0.0), "s2": (0.0, 1.0), "s3": (1.0, 1.0)}


def _text(index):
    for document_id, text in DOCUMENTS.items():
        index.add_document(document_id, text)
    return index


def _visual():
    index = VisualIndex()
    for shot_id, features in SHOTS.items():
        index.add_shot(shot_id, features)
    return index


def _add_text(index):
    index.add_document("written", "goal rain")


def _add_shot(index):
    index.add_shot("written", (0.5, 0.5))


def _scorer(scorer_class):
    def build():
        index = _text(InvertedIndex())
        return scorer_class(index), "_tables", lambda: _add_text(index)

    return build


def _scan_view():
    index = _visual()
    return index, "_scan", lambda: _add_shot(index)


def _engine(write):
    def build():
        engine = VideoRetrievalEngine(
            None, inverted_index=_text(InvertedIndex()), visual_index=_visual()
        )
        writes = {
            "text": lambda: engine.index_document("written", "goal rain"),
            "visual": lambda: engine.index_shot("written", (0.5, 0.5)),
        }
        return engine._result_cache, "_segments", writes[write]

    return build


def _memo(write):
    def build():
        text, visual = _text(InvertedIndex()), _visual()
        model = ImplicitFeedbackModel(text, visual_index=visual)
        writes = {"text": lambda: _add_text(text), "visual": lambda: _add_shot(visual)}
        return model, "_cache", writes[write]

    return build


#: ``name -> build()``, which returns ``(owner, cell attribute, write)``.
CONSUMERS = {
    "bm25-tables": _scorer(Bm25Scorer),
    "tfidf-tables": _scorer(TfIdfScorer),
    "visual-scan-view": _scan_view,
    "result-cache-text-write": _engine("text"),
    "result-cache-visual-write": _engine("visual"),
    "rerank-memo-text-write": _memo("text"),
    "rerank-memo-visual-write": _memo("visual"),
}


def _cell(consumer):
    owner, name, write = CONSUMERS[consumer]()
    cell = getattr(owner, name)
    assert isinstance(cell, PerGeneration)
    return owner, name, cell, write


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
class TestPerGenerationContract:
    def test_no_write_serves_the_same_object(self, consumer):
        _, _, cell, _ = _cell(consumer)
        first = cell.get()
        assert cell.get() is first
        assert cell.get() is first

    def test_a_write_rebuilds_on_the_next_read(self, consumer):
        _, _, cell, write = _cell(consumer)
        first = cell.get()
        write()
        second = cell.get()
        assert second is not first
        assert cell.get() is second

    def test_a_pickle_round_trip_carries_no_derived_value(self, consumer):
        owner, name, cell, _ = _cell(consumer)
        cell.get()
        assert cell._held[1] is not None
        # The owner where it pickles (indexes, scorers); the cell
        # alone where the owner holds locks (result cache, feedback model).
        try:
            clone = getattr(pickle.loads(pickle.dumps(owner)), name)
        except TypeError:
            clone = pickle.loads(pickle.dumps(cell))
        assert clone._held == (None, None)
        assert clone.get() is not None


class _WritingScorer(TextScorer):
    """BM25 that, when armed, writes to an index in the middle of a score.

    The legacy direct index call: nothing orders it against the search.
    """

    may_block = False

    def __init__(self, index, write):
        self._inner = Bm25Scorer(index)
        self._write = write
        self.armed = False
        self.calls = 0

    def score(self, query_terms):
        self.calls += 1
        scores = dict(self._inner.score(query_terms))
        if self.armed:
            self.armed = False
            self._write()
        return scores


def _writing_engine(write):
    text, visual = _text(InvertedIndex()), _visual()
    writes = {"text": lambda: _add_text(text), "visual": lambda: _add_shot(visual)}
    scorer = _WritingScorer(text, writes[write])
    engine = VideoRetrievalEngine(
        None,
        inverted_index=text,
        visual_index=visual,
        config=EngineConfig(result_cache_size=8),
        text_scorer=scorer,
    )
    return engine, scorer


def check_evaluated_across_a_write_is_never_served(write):
    engine, scorer = _writing_engine(write)
    query = Query(text="football goal")
    scorer.armed = True
    engine.search(query)  # evaluated across a write
    assert scorer.calls == 1
    engine.search(query)  # must evaluate again, not serve the first ranking
    assert scorer.calls == 2
    engine.search(query)  # evaluated in one generation: now cached
    assert scorer.calls == 2
    assert engine.result_cache_stats()["hits"] == 1


@pytest.mark.parametrize("write", ["text", "visual"])
def test_a_search_evaluated_across_a_write_is_never_cached(write):
    check_evaluated_across_a_write_is_never_served(write)


def test_differential_fails_on_a_mutant_writing_into_the_current_store(monkeypatch):
    source = textwrap.dedent(
        inspect.getsource(VideoRetrievalEngine._search_read_locked)
    )
    original = "self._result_cache.insert(slot, self._copy_results(results))"
    assert source.count(original) == 1
    mutated = "slot = (self._result_cache._segments.get(),) + slot[1:]; " + original
    namespace = dict(vars(engine_module))
    exec(source.replace(original, mutated), namespace)
    monkeypatch.setattr(
        VideoRetrievalEngine, "_search_read_locked", namespace["_search_read_locked"]
    )
    with pytest.raises(AssertionError):
        check_evaluated_across_a_write_is_never_served("text")
