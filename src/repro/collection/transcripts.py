"""Synthetic ASR transcript generation with a controllable error model.

TRECVID search systems index the output of automatic speech recognition,
which is noisy: words are deleted, substituted or (less often) inserted.
The paper notes that "textual sources of video clips, i.e. speech
transcripts, are often not reliable enough to describe the actual content of
a clip" — that unreliability is a first-class parameter here
(:class:`AsrNoiseModel`) so experiments can study how retrieval and feedback
behave as transcript quality degrades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.collection.vocabulary import Vocabulary
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_probability


@dataclass(frozen=True)
class AsrNoiseModel:
    """Word-level ASR error model.

    Attributes
    ----------
    deletion_rate:
        Probability that a spoken word is dropped from the transcript.
    substitution_rate:
        Probability that a spoken word is replaced by a random vocabulary
        word (a recognition error).
    insertion_rate:
        Probability, per emitted word, of inserting a spurious extra word.
    """

    deletion_rate: float = 0.08
    substitution_rate: float = 0.12
    insertion_rate: float = 0.03

    def __post_init__(self) -> None:
        ensure_probability(self.deletion_rate, "deletion_rate")
        ensure_probability(self.substitution_rate, "substitution_rate")
        ensure_probability(self.insertion_rate, "insertion_rate")
        if self.deletion_rate + self.substitution_rate > 1.0:
            raise ValueError("deletion_rate + substitution_rate must not exceed 1.0")

    @property
    def word_error_rate(self) -> float:
        """Approximate word error rate implied by the model."""
        return self.deletion_rate + self.substitution_rate + self.insertion_rate

    @classmethod
    def clean(cls) -> "AsrNoiseModel":
        """A perfect recogniser (no errors); useful as an experimental control."""
        return cls(deletion_rate=0.0, substitution_rate=0.0, insertion_rate=0.0)

    @classmethod
    def poor(cls) -> "AsrNoiseModel":
        """A poor recogniser, roughly 45% word error rate."""
        return cls(deletion_rate=0.15, substitution_rate=0.25, insertion_rate=0.05)


class TranscriptGenerator:
    """Generates spoken text for shots and corrupts it with ASR noise.

    The *spoken* text of a shot is sampled from a mixture of the shot's
    category language model, the background model and (for shots relevant to
    a search topic) the topic's discriminative terms.  The *transcript* the
    retrieval system sees is the spoken text passed through the ASR noise
    model.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        noise_model: AsrNoiseModel = AsrNoiseModel(),
        category_weight: float = 0.45,
        topic_weight: float = 0.25,
    ) -> None:
        self._vocabulary = vocabulary
        self._all_terms = vocabulary.all_terms()
        self._noise = noise_model
        self._category_weight = ensure_probability(category_weight, "category_weight")
        self._topic_weight = ensure_probability(topic_weight, "topic_weight")

    @property
    def noise_model(self) -> AsrNoiseModel:
        """The ASR error model in use."""
        return self._noise

    def spoken_words(
        self,
        rng: RandomSource,
        category: str,
        word_count: int,
        topic_terms: Sequence[str] = (),
    ) -> List[str]:
        """Sample the words actually spoken during a shot."""
        extra_weight = self._topic_weight if topic_terms else 0.0
        return self._vocabulary.sample_mixture(
            rng,
            category=category,
            count=word_count,
            category_weight=self._category_weight,
            extra_terms=topic_terms,
            extra_weight=extra_weight,
        )

    def corrupt(self, rng: RandomSource, words: Sequence[str]) -> List[str]:
        """Apply the ASR error model to a word sequence."""
        all_terms = self._all_terms
        output: List[str] = []
        for word in words:
            draw = rng.random()
            if draw < self._noise.deletion_rate:
                continue
            if draw < self._noise.deletion_rate + self._noise.substitution_rate:
                output.append(rng.choice(all_terms))
            else:
                output.append(word)
            if rng.boolean(self._noise.insertion_rate):
                output.append(rng.choice(all_terms))
        return output

    def transcript_for_shot(
        self,
        rng: RandomSource,
        category: str,
        word_count: int,
        topic_terms: Sequence[str] = (),
    ) -> str:
        """Generate a noisy transcript for one shot."""
        spoken = self.spoken_words(rng, category, word_count, topic_terms)
        recognised = self.corrupt(rng, spoken)
        return " ".join(recognised)
