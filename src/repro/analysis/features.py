"""Low-level visual feature extraction (simulated).

Real video retrieval systems extract colour histograms, edge-direction
histograms and texture statistics from keyframes.  Our keyframes carry a
*latent visual signal* (a point in a latent space positioned by the
collection generator so that shots about the same topic are close together).
The extractors below turn that latent signal into feature vectors with the
same shape and statistical behaviour as the real thing: deterministic given
the keyframe, bounded, and noisy projections of the underlying content.

Downstream code (visual index, fusion, concept detection) only ever sees the
feature vectors, so swapping these simulated extractors for real ones is a
drop-in change.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.collection.documents import Keyframe
from repro.errors import InvalidArgumentError
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_positive


def _sigmoid(value: float) -> float:
    return 1.0 / (1.0 + math.exp(-value))


@dataclass(frozen=True)
class FeatureConfig:
    """Configuration of the simulated feature extractors."""

    colour_bins: int = 16
    edge_bins: int = 8
    texture_bins: int = 8
    noise_sigma: float = 0.05

    def __post_init__(self) -> None:
        ensure_positive(self.colour_bins, "colour_bins")
        ensure_positive(self.edge_bins, "edge_bins")
        ensure_positive(self.texture_bins, "texture_bins")
        if self.noise_sigma < 0:
            raise InvalidArgumentError("noise_sigma must be non-negative")

    @property
    def dimensions(self) -> int:
        """Total dimensionality of the concatenated feature vector."""
        return self.colour_bins + self.edge_bins + self.texture_bins


class FeatureExtractor:
    """Extracts a fixed-length feature vector from a keyframe.

    The extractor applies a deterministic random projection of the latent
    signal into each feature family's space, squashes to ``[0, 1]`` and adds
    a small amount of per-keyframe noise (extraction error), then L1
    normalises each family as a histogram would be.
    """

    def __init__(self, config: FeatureConfig = FeatureConfig(), seed: int = 97) -> None:
        self._config = config
        self._seed = int(seed)
        self._root = RandomSource(self._seed)
        self._projections: Dict[str, List[Tuple[float, ...]]] = {}

    @property
    def config(self) -> FeatureConfig:
        """The extractor configuration."""
        return self._config

    def _projection(self, family: str, bins: int, input_dim: int) -> List[Tuple[float, ...]]:
        key = f"{family}:{bins}:{input_dim}"
        if key not in self._projections:
            rng = self._root.spawn("projection", family, bins, input_dim)
            self._projections[key] = [
                tuple(rng.gauss(0.0, 1.0 / math.sqrt(input_dim)) for _ in range(input_dim))
                for _ in range(bins)
            ]
        return self._projections[key]

    def _family_histogram(
        self, family: str, bins: int, signal: Sequence[float], noise_rng: RandomSource
    ) -> List[float]:
        projection = self._projection(family, bins, len(signal))
        sigma = self._config.noise_sigma
        raw = []
        for row in projection:
            # Same products, same order as a generator expression (see
            # cosine_similarity), so the same float.
            value = _sigmoid(sum(map(operator.mul, row, signal)))
            if sigma > 0:
                value += noise_rng.gauss(0.0, sigma)
            raw.append(max(0.0, value))
        total = sum(raw)
        if total <= 0:
            return [1.0 / bins] * bins
        return [value / total for value in raw]

    def extract(self, keyframe: Keyframe) -> Tuple[float, ...]:
        """Extract the concatenated colour/edge/texture feature vector."""
        noise_rng = self._root.spawn("noise", keyframe.keyframe_id)
        signal = keyframe.latent_signal
        colour = self._family_histogram("colour", self._config.colour_bins, signal, noise_rng)
        edge = self._family_histogram("edge", self._config.edge_bins, signal, noise_rng)
        texture = self._family_histogram(
            "texture", self._config.texture_bins, signal, noise_rng
        )
        return tuple(colour + edge + texture)

    def extract_many(self, keyframes: Sequence[Keyframe]) -> List[Tuple[float, ...]]:
        """Extract features for a batch of keyframes."""
        return [self.extract(keyframe) for keyframe in keyframes]


def cosine_similarity(left: Sequence[float], right: Sequence[float]) -> float:
    """Cosine similarity between two feature vectors (0 for zero vectors).

    The ``map(operator.mul, ...)`` form adds the same products in the same
    order as a generator expression would, without per-element bytecode.
    """
    if len(left) != len(right):
        raise InvalidArgumentError(
            f"vectors must have equal length, got {len(left)} and {len(right)}"
        )
    dot = sum(map(operator.mul, left, right))
    norm_left = math.sqrt(sum(map(operator.mul, left, left)))
    norm_right = math.sqrt(sum(map(operator.mul, right, right)))
    if norm_left == 0 or norm_right == 0:
        return 0.0
    return dot / (norm_left * norm_right)


def euclidean_distance(left: Sequence[float], right: Sequence[float]) -> float:
    """Euclidean distance between two feature vectors."""
    if len(left) != len(right):
        raise InvalidArgumentError(
            f"vectors must have equal length, got {len(left)} and {len(right)}"
        )
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(left, right)))


def histogram_intersection(left: Sequence[float], right: Sequence[float]) -> float:
    """Histogram intersection similarity (common for colour histograms)."""
    if len(left) != len(right):
        raise InvalidArgumentError(
            f"vectors must have equal length, got {len(left)} and {len(right)}"
        )
    return sum(min(a, b) for a, b in zip(left, right))
