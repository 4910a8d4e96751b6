"""Synthetic vocabulary and per-category language models.

The TRECVID collections used by the paper consist of broadcast news with
automatic speech recognition (ASR) transcripts.  We replace the real
transcripts with text sampled from *category language models*: each news
category (politics, sports, weather, ...) owns a set of characteristic terms,
and every document mixes its category model with a shared background model.
This preserves the statistical structure text retrieval relies on —
discriminative terms cluster by topic, common terms appear everywhere —
without needing the original data.

Terms are pronounceable pseudo-words generated deterministically from a seed,
so collections are reproducible and no real-world text is required.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.errors import InvalidArgumentError
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_non_empty, ensure_positive, ensure_probability

#: News categories used throughout the library.  They double as the concept
#: ontology roots for static user profiles (see :mod:`repro.profiles.ontology`).
DEFAULT_CATEGORIES: Tuple[str, ...] = (
    "politics",
    "sports",
    "business",
    "science",
    "technology",
    "health",
    "weather",
    "entertainment",
    "crime",
    "world",
)

#: Function words removed by the tokenizer and mixed into every transcript to
#: mimic the high-frequency, low-information portion of real ASR output.
STOPWORDS: Tuple[str, ...] = (
    "the", "a", "an", "and", "or", "but", "if", "then", "of", "to", "in",
    "on", "at", "by", "for", "with", "about", "against", "between", "into",
    "through", "during", "before", "after", "above", "below", "from", "up",
    "down", "out", "off", "over", "under", "again", "further", "once", "here",
    "there", "when", "where", "why", "how", "all", "any", "both", "each",
    "few", "more", "most", "other", "some", "such", "no", "nor", "not",
    "only", "own", "same", "so", "than", "too", "very", "can", "will",
    "just", "should", "now", "is", "are", "was", "were", "be", "been",
    "being", "have", "has", "had", "do", "does", "did", "it", "its", "this",
    "that", "these", "those", "he", "she", "they", "we", "you", "i",
)

_ONSETS = (
    "b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j",
    "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sl", "st",
    "t", "th", "tr", "v", "w",
)
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "ou")
_CODAS = ("", "b", "d", "g", "k", "l", "m", "n", "nd", "ng", "r", "s", "st", "t", "x")


def _pseudo_word(rng: RandomSource, syllables: int) -> str:
    """Build a pronounceable pseudo-word with the given number of syllables."""
    parts: List[str] = []
    for _ in range(syllables):
        parts.append(rng.choice(_ONSETS))
        parts.append(rng.choice(_NUCLEI))
        parts.append(rng.choice(_CODAS))
    return "".join(parts)


def generate_term_set(rng: RandomSource, size: int, min_syllables: int = 2,
                      max_syllables: int = 3) -> List[str]:
    """Generate ``size`` distinct pseudo-words.

    Collisions are resolved by re-drawing, and the output order is the draw
    order (so earlier terms can be treated as "more central" to a category).
    """
    ensure_positive(size, "size")
    seen = set(STOPWORDS)
    terms: List[str] = []
    attempts = 0
    while len(terms) < size:
        attempts += 1
        if attempts > size * 200:
            raise RuntimeError("could not generate enough distinct pseudo-words")
        word = _pseudo_word(rng, rng.randint(min_syllables, max_syllables))
        if word in seen:
            continue
        seen.add(word)
        terms.append(word)
    return terms


@dataclass
class CategoryLanguageModel:
    """A unigram language model for one news category.

    Attributes
    ----------
    category:
        Category name (e.g. ``"politics"``).
    terms:
        Category-specific terms, ordered from most to least central.
    probabilities:
        Zipf-shaped sampling probabilities aligned with ``terms``.
    """

    category: str
    terms: List[str]
    probabilities: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        ensure_non_empty(self.terms, "terms")
        if not self.probabilities:
            weights = [1.0 / (rank + 1) for rank in range(len(self.terms))]
            total = sum(weights)
            self.probabilities = [weight / total for weight in weights]
        if len(self.probabilities) != len(self.terms):
            raise InvalidArgumentError("probabilities must align with terms")
        # The table ``random.choices`` would rebuild on every call.
        self._cumulative = list(accumulate(self.probabilities))
        self._total = self._cumulative[-1] + 0.0
        if not (self._total > 0.0 and math.isfinite(self._total)):
            raise InvalidArgumentError(
                f"probabilities must sum to a positive finite total, got {self._total}"
            )

    def draw(self, rng: RandomSource) -> str:
        """Draw one term according to the model.

        This is the expression ``rng.choices(terms, weights=probabilities)``
        evaluates after building its cumulative table: it consumes one
        ``random()`` and picks the same term.
        """
        return self.terms[
            bisect(self._cumulative, rng.random() * self._total, 0, len(self.terms) - 1)
        ]

    def sample(self, rng: RandomSource, count: int) -> List[str]:
        """Sample ``count`` terms with replacement according to the model."""
        return [self.draw(rng) for _ in range(count)]

    def top_terms(self, count: int) -> List[str]:
        """The ``count`` most central terms of the category."""
        return self.terms[:count]

    def probability(self, term: str) -> float:
        """Unigram probability of ``term`` under this model (0 if unknown)."""
        try:
            index = self.terms.index(term)
        except ValueError:
            return 0.0
        return self.probabilities[index]


@dataclass
class Vocabulary:
    """The full synthetic vocabulary: background model plus category models."""

    background: CategoryLanguageModel
    categories: Dict[str, CategoryLanguageModel]

    @property
    def category_names(self) -> List[str]:
        """Sorted list of category names."""
        return sorted(self.categories)

    def model_for(self, category: str) -> CategoryLanguageModel:
        """Return the language model for ``category``.

        Raises
        ------
        KeyError
            If the category is unknown.
        """
        if category not in self.categories:
            raise KeyError(f"unknown category {category!r}; known: {self.category_names}")
        return self.categories[category]

    def all_terms(self) -> List[str]:
        """Every term in the vocabulary (background first, then categories)."""
        terms = list(self.background.terms)
        for name in self.category_names:
            terms.extend(self.categories[name].terms)
        return terms

    def sample_mixture(
        self,
        rng: RandomSource,
        category: str,
        count: int,
        category_weight: float = 0.5,
        extra_terms: Sequence[str] = (),
        extra_weight: float = 0.0,
    ) -> List[str]:
        """Sample ``count`` terms from a mixture of models.

        The mixture is ``extra_weight`` on the uniform model over
        ``extra_terms`` (topic-specific terms), ``category_weight`` on the
        category model and the remainder on the background model.  This is
        the generative process behind every synthetic transcript.
        """
        ensure_probability(category_weight, "category_weight")
        ensure_probability(extra_weight, "extra_weight")
        if category_weight + extra_weight > 1.0:
            raise InvalidArgumentError(
                "category_weight + extra_weight must not exceed 1.0"
            )
        model = self.model_for(category)
        background = self.background
        extras = list(extra_terms)
        model_weight = extra_weight + category_weight
        words: List[str] = []
        for _ in range(max(count, 0)):
            draw = rng.random()
            if extras and draw < extra_weight:
                words.append(rng.choice(extras))
            elif draw < model_weight:
                words.append(model.draw(rng))
            else:
                words.append(background.draw(rng))
        return words


def build_vocabulary(
    rng: RandomSource,
    categories: Sequence[str] = DEFAULT_CATEGORIES,
    terms_per_category: int = 120,
    background_terms: int = 400,
) -> Vocabulary:
    """Build a complete synthetic vocabulary.

    Parameters
    ----------
    rng:
        Random source; pass ``RandomSource(seed).spawn("vocabulary")``.
    categories:
        Category names; each receives its own disjoint term set.
    terms_per_category:
        Number of category-specific terms per category.
    background_terms:
        Number of shared background (non-stopword) terms; stopwords are
        appended to the background model with boosted probability.
    """
    ensure_non_empty(list(categories), "categories")
    background_vocab = generate_term_set(rng.spawn("background"), background_terms)
    # Stopwords get a heavy head so they dominate raw term frequencies as in
    # real ASR transcripts.
    background_all = list(STOPWORDS) + background_vocab
    weights = [4.0 / (rank + 1) for rank in range(len(STOPWORDS))]
    weights += [1.0 / (rank + 1) for rank in range(len(background_vocab))]
    total = sum(weights)
    background_model = CategoryLanguageModel(
        category="__background__",
        terms=background_all,
        probabilities=[weight / total for weight in weights],
    )

    used = set(background_all)
    category_models: Dict[str, CategoryLanguageModel] = {}
    for name in categories:
        child = rng.spawn("category", name)
        terms: List[str] = []
        # Bounded like generate_term_set's own draws: a round whose terms
        # are all taken by earlier categories adds nothing.
        rounds = 0
        while len(terms) < terms_per_category:
            rounds += 1
            if rounds > 200:
                raise RuntimeError(
                    f"could not draw {terms_per_category} terms for category "
                    f"{name!r} that no other category uses"
                )
            for candidate in generate_term_set(child, terms_per_category):
                if candidate in used:
                    continue
                used.add(candidate)
                terms.append(candidate)
                if len(terms) >= terms_per_category:
                    break
        category_models[name] = CategoryLanguageModel(category=name, terms=terms)
    return Vocabulary(background=background_model, categories=category_models)
