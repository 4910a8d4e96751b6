"""Compaction renumbers the dense columns; it must equal re-adding every live item.

``compacted_copy`` maps each postings column through one old → new slot
table and keeps the live entries of each per-slot column.  The reference
kept here is what it replaced: a fresh index with every live item re-added
in slot order.  After seeded add/update/delete streams and at the edge
cases (a term's only document deleted, slot 0 deleted, everything deleted,
a concept's last shot deleted, no tombstones, two compactions back to
back) the two must agree on every field — ids, lookup, lengths, vectors,
norms, maps, postings columns — on the order of every dictionary, and on
the pickled bytes.  A prepared copy must not alias its source's mutable
columns, and compacting an engine must re-add, tokenise or re-check
nothing.
"""

from __future__ import annotations

import pickle
import random

import pytest

import repro.index.visual as visual_module
from repro.index import InvertedIndex, VisualIndex
from repro.index.tokenizer import Tokenizer
from repro.retrieval import EngineConfig, VideoRetrievalEngine

VOCABULARY = [f"t{number}" for number in range(40)]
CONCEPTS = [f"c{number}" for number in range(8)]


# -- the reference: re-add every live item in slot order --------------------------


def readd_text(index: InvertedIndex) -> InvertedIndex:
    fresh = InvertedIndex(tokenizer=index.tokenizer)
    for slot, document_id in enumerate(index.slots.ids):
        if document_id is not None:
            fresh.add_document_frequencies(document_id, index._doc_vectors[slot])
    return fresh


def readd_visual(index: VisualIndex) -> VisualIndex:
    fresh = VisualIndex()
    for slot, shot_id in enumerate(index.slots.ids):
        if shot_id is not None:
            fresh.add_shot(shot_id, index._vectors[slot], index._concept_maps[slot])
    return fresh


# -- every field, dictionary order included ---------------------------------------


def _column(values) -> tuple:
    return values.typecode, values.tolist()


def _slot_fields(index) -> dict:
    return {
        "ids": list(index.slots.ids),
        "slot_of": list(index.slots._slot_of.items()),
    }


def text_fields(index: InvertedIndex) -> dict:
    return {
        **_slot_fields(index),
        "lengths": _column(index._doc_lengths),
        "vectors": [list(vector.items()) for vector in index._doc_vectors],
        "postings": [
            (term, _column(docs), _column(freqs))
            for term, (docs, freqs) in index._postings_columns.items()
        ],
        "collection_frequencies": list(index._collection_frequencies.items()),
        "total_terms": index._total_terms,
        "terms": index.terms(),
    }


def visual_fields(index: VisualIndex) -> dict:
    return {
        **_slot_fields(index),
        "vectors": [tuple(vector) for vector in index._vectors],
        "norms": _column(index._norms),
        "concept_maps": [list(concepts.items()) for concepts in index._concept_maps],
        "concept_postings": [
            (concept, list(entries))
            for concept, entries in index._concept_postings.items()
        ],
        "lengths": list(index._lengths.items()),
    }


def assert_matches_reference(index) -> None:
    """``compacted_copy()`` equals the re-add reference, field for field and
    in pickled bytes once each is adopted into an identical source."""
    if isinstance(index, InvertedIndex):
        fields, reference = text_fields, readd_text
    else:
        fields, reference = visual_fields, readd_visual
    expected = reference(index)
    assert fields(index.compacted_copy()) == fields(expected)
    remapped = pickle.loads(pickle.dumps(index))
    readded = pickle.loads(pickle.dumps(index))
    remapped.adopt_compacted(remapped.compacted_copy())
    readded.adopt_compacted(reference(readded))
    assert pickle.dumps(remapped) == pickle.dumps(readded)


# -- seeded write streams ---------------------------------------------------------


def _frequencies(rng: random.Random) -> dict:
    terms = rng.sample(VOCABULARY, rng.randint(1, 6))
    return {term: rng.randint(1, 3) for term in terms}


def _shot(rng: random.Random):
    features = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    concepts = {concept: rng.random() for concept in rng.sample(CONCEPTS, rng.randint(0, 3))}
    return features, concepts


def text_stream(seed: int, steps: int, compact_every: int = 0) -> InvertedIndex:
    """Adds, updates and deletes (and optional compactions) from one seed."""
    rng = random.Random(seed)
    index, added = InvertedIndex(), 0
    for step in range(1, steps + 1):
        live = index.document_ids()
        action = rng.random()
        if action < 0.5 or not live:
            index.add_document_frequencies(f"d{added}", _frequencies(rng))
            added += 1
        elif action < 0.7:
            index.update_document_frequencies(rng.choice(live), _frequencies(rng))
        else:
            index.delete_document(rng.choice(live))
        if compact_every and step % compact_every == 0:
            index.compact()
    return index


def visual_stream(seed: int, steps: int, compact_every: int = 0) -> VisualIndex:
    rng = random.Random(seed)
    index, added = VisualIndex(), 0
    for step in range(1, steps + 1):
        live = index.shot_ids()
        if rng.random() < 0.6 or not live:
            index.add_shot(f"s{added}", *_shot(rng))
            added += 1
        else:
            index.delete_shot(rng.choice(live))
        if compact_every and step % compact_every == 0:
            index.compact()
    return index


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("compact_every", (0, 37))
class TestSeededStreams:
    def test_text_copy_equals_readd(self, seed, compact_every):
        index = text_stream(seed, 240, compact_every)
        assert index.tombstone_count > 0
        assert_matches_reference(index)

    def test_visual_copy_equals_readd(self, seed, compact_every):
        index = visual_stream(seed, 240, compact_every)
        assert index.tombstone_count > 0
        assert_matches_reference(index)

    def test_dictionary_order_differs_from_the_source(self, seed, compact_every):
        # The streams exercise the order rule: somewhere a term outlived the
        # document that first brought it, so the source's dictionary order
        # is not a rebuild's and the copy must not simply keep it.
        text = text_stream(seed, 240, compact_every)
        assert text.terms() != readd_text(text).terms()


class TestEdgeCases:
    @staticmethod
    def _text() -> InvertedIndex:
        index = InvertedIndex()
        index.add_document_frequencies("a", {"x": 1, "y": 2})
        index.add_document_frequencies("b", {"y": 1, "only": 3, "x": 2})
        index.add_document_frequencies("c", {"z": 1, "x": 1})
        return index

    @staticmethod
    def _visual() -> VisualIndex:
        index = VisualIndex()
        index.add_shot("s0", [1.0, 0.0], {"crowd": 0.9, "flag": 0.2})
        index.add_shot("s1", [0.0, 1.0], {"flag": 0.8, "last": 0.4})
        index.add_shot("s2", [0.5, 0.5], {"crowd": 0.1})
        return index

    def test_deleting_a_terms_only_document(self):
        index = self._text()
        index.delete_document("b")
        assert "only" not in index
        assert_matches_reference(index)

    def test_deleting_slot_zero(self):
        text, visual = self._text(), self._visual()
        text.delete_document("a")
        visual.delete_shot("s0")
        # A rebuild meets "y" in b's map first, then "only" and "x".
        assert readd_text(text).terms()[:3] == ["y", "only", "x"]
        assert_matches_reference(text)
        assert_matches_reference(visual)

    def test_deleting_every_item(self):
        text, visual = self._text(), self._visual()
        for document_id in text.document_ids():
            text.delete_document(document_id)
        for shot_id in visual.shot_ids():
            visual.delete_shot(shot_id)
        assert_matches_reference(text)
        assert_matches_reference(visual)
        assert text.compact() == 3 and visual.compact() == 3
        assert text_fields(text) == text_fields(InvertedIndex())
        assert visual_fields(visual) == visual_fields(VisualIndex())

    def test_a_concepts_last_shot(self):
        index = self._visual()
        index.delete_shot("s1")
        assert "last" not in index._concept_postings
        assert_matches_reference(index)

    def test_zero_tombstones(self):
        text, visual = self._text(), self._visual()
        assert_matches_reference(text)
        assert_matches_reference(visual)
        before = text_fields(text)
        assert text.compact() == 0
        assert text_fields(text) == before

    def test_two_compactions_back_to_back(self):
        text = text_stream(11, 120)
        visual = visual_stream(11, 120)
        for index in (text, visual):
            assert index.compact() > 0
            assert_matches_reference(index)
            assert index.compact() == 0
        text.delete_document(text.document_ids()[0])
        visual.delete_shot(visual.shot_ids()[0])
        for index in (text, visual):
            assert_matches_reference(index)
            assert index.compact() == 1
            assert_matches_reference(index)


class TestPreparedCopyIsItsOwn:
    """Writes to the source after the copy is prepared (the window between
    prepare and adoption) must not reach the copy's columns."""

    def test_text(self):
        index = text_stream(5, 160)
        copy = index.compacted_copy()
        before = text_fields(copy)
        live = index.document_ids()
        index.add_document_frequencies("late", dict.fromkeys(VOCABULARY[:20], 2))
        for document_id in live[:: max(1, len(live) // 10)]:
            index.delete_document(document_id)
        index.update_document_frequencies(live[1], {"t0": 5, "t1": 1})
        assert text_fields(copy) == before

    def test_visual(self):
        index = visual_stream(5, 160)
        copy = index.compacted_copy()
        before = visual_fields(copy)
        live = index.shot_ids()
        index.add_shot("late", [0.3, 0.1, 0.2, 0.4], dict.fromkeys(CONCEPTS, 0.5))
        for shot_id in live[:: max(1, len(live) // 10)]:
            index.delete_shot(shot_id)
        assert visual_fields(copy) == before


class TestCompactionWork:
    def test_compacting_an_engine_adds_and_tokenises_nothing(
        self, analysed_corpus, monkeypatch
    ):
        engine = VideoRetrievalEngine(
            analysed_corpus.collection, config=EngineConfig(result_cache_size=0)
        )
        text, visual = engine.inverted_index, engine.visual_index
        for document_id in text.document_ids()[::3]:
            engine.delete_document(document_id)
        for shot_id in visual.shot_ids()[::4]:
            engine.delete_shot(shot_id)
        live = (text.document_count, visual.shot_count)
        assert min(live) > 0
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(InvertedIndex, "add_document_frequencies")
        counted(VisualIndex, "add_shot")
        counted(Tokenizer, "term_frequencies")
        counted(visual_module, "finite_features")
        stats = engine.compact()
        assert stats.documents_reclaimed > 0 and stats.shots_reclaimed > 0
        assert (text.document_count, visual.shot_count) == live
        assert calls == []
