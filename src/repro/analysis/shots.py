"""Shot-boundary detection over a simulated frame-difference signal.

TRECVID systems segment video into shots before anything else.  The
collection generator already knows the true shot structure; this module
closes the loop by synthesising the *frame-difference signal* a real
detector would compute (small differences within a shot, a spike at each
cut, occasional gradual transitions) and then detecting boundaries from that
signal alone.  The detector's precision/recall against the known structure
is reported by the analysis benchmarks, mirroring the shot-boundary task
that precedes every TRECVID search run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.collection.documents import Collection
from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class FrameDifferenceSignal:
    """A per-frame difference signal for one video plus its ground truth."""

    video_id: str
    frame_rate: float
    differences: Tuple[float, ...]
    true_boundaries: Tuple[int, ...]

    @property
    def frame_count(self) -> int:
        """Number of frames in the signal."""
        return len(self.differences)


class FrameSignalSynthesiser:
    """Produces frame-difference signals consistent with a collection's shots."""

    def __init__(
        self,
        frame_rate: float = 5.0,
        within_shot_level: float = 0.08,
        cut_level: float = 0.85,
        noise_sigma: float = 0.04,
        gradual_transition_probability: float = 0.15,
        seed: int = 311,
    ) -> None:
        ensure_positive(frame_rate, "frame_rate")
        self._frame_rate = frame_rate
        self._within = within_shot_level
        self._cut = cut_level
        self._noise = noise_sigma
        self._gradual_probability = gradual_transition_probability
        self._seed = int(seed)

    def synthesise(self, collection: Collection, video_id: str) -> FrameDifferenceSignal:
        """Build the frame-difference signal for one bulletin."""
        rng = RandomSource(self._seed).spawn("frames", video_id)
        shots = collection.shots_of_video(video_id)
        differences: List[float] = []
        boundaries: List[int] = []
        for shot_index, shot in enumerate(shots):
            frame_count = max(2, int(round(shot.duration * self._frame_rate)))
            if shot_index > 0:
                boundaries.append(len(differences))
                if rng.boolean(self._gradual_probability):
                    # A gradual transition: elevated but sub-cut differences
                    # over a few frames.
                    for step in range(3):
                        level = self._cut * (0.45 + 0.1 * step)
                        differences.append(max(0.0, level + rng.gauss(0.0, self._noise)))
                else:
                    differences.append(max(0.0, self._cut + rng.gauss(0.0, self._noise)))
            for _ in range(frame_count):
                differences.append(max(0.0, self._within + rng.gauss(0.0, self._noise)))
        return FrameDifferenceSignal(
            video_id=video_id,
            frame_rate=self._frame_rate,
            differences=tuple(differences),
            true_boundaries=tuple(boundaries),
        )


@dataclass(frozen=True)
class ShotBoundaryResult:
    """Detected boundaries plus evaluation against the ground truth."""

    video_id: str
    detected: Tuple[int, ...]
    true_boundaries: Tuple[int, ...]
    precision: float
    recall: float

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


class ShotBoundaryDetector:
    """Adaptive-threshold shot boundary detector.

    A frame is declared a boundary when its difference value exceeds
    ``threshold_factor`` times the local mean difference within a sliding
    window, subject to a minimum absolute threshold.  This is the classic
    twin-comparison style heuristic used before learned detectors existed.
    """

    def __init__(
        self,
        threshold_factor: float = 3.0,
        minimum_difference: float = 0.3,
        window: int = 12,
        merge_distance: int = 3,
    ) -> None:
        ensure_positive(threshold_factor, "threshold_factor")
        ensure_positive(window, "window")
        self._factor = threshold_factor
        self._minimum = minimum_difference
        self._window = window
        self._merge_distance = merge_distance

    def detect(self, signal: FrameDifferenceSignal) -> List[int]:
        """Return detected boundary frame indices."""
        differences = signal.differences
        detected: List[int] = []
        for index, value in enumerate(differences):
            start = max(0, index - self._window)
            end = min(len(differences), index + self._window + 1)
            neighbourhood = [
                differences[i] for i in range(start, end) if i != index
            ]
            local_mean = sum(neighbourhood) / max(1, len(neighbourhood))
            threshold = max(self._minimum, self._factor * local_mean)
            if value >= threshold:
                if detected and index - detected[-1] <= self._merge_distance:
                    continue
                detected.append(index)
        return detected

    def evaluate(
        self, signal: FrameDifferenceSignal, tolerance: int = 3
    ) -> ShotBoundaryResult:
        """Detect boundaries and score them against the ground truth.

        A detection is correct if it falls within ``tolerance`` frames of a
        true boundary; each true boundary can be matched at most once.
        """
        detected = self.detect(signal)
        unmatched_truth = list(signal.true_boundaries)
        true_positives = 0
        for boundary in detected:
            match = None
            for truth in unmatched_truth:
                if abs(truth - boundary) <= tolerance:
                    match = truth
                    break
            if match is not None:
                unmatched_truth.remove(match)
                true_positives += 1
        precision = true_positives / len(detected) if detected else 0.0
        recall = (
            true_positives / len(signal.true_boundaries)
            if signal.true_boundaries
            else 1.0
        )
        return ShotBoundaryResult(
            video_id=signal.video_id,
            detected=tuple(detected),
            true_boundaries=signal.true_boundaries,
            precision=precision,
            recall=recall,
        )


def evaluate_collection_segmentation(
    collection: Collection,
    synthesiser: FrameSignalSynthesiser = None,
    detector: ShotBoundaryDetector = None,
) -> List[ShotBoundaryResult]:
    """Run shot-boundary detection over every bulletin in a collection."""
    synthesiser = synthesiser or FrameSignalSynthesiser()
    detector = detector or ShotBoundaryDetector()
    results = []
    for video in collection.videos():
        signal = synthesiser.synthesise(collection, video.video_id)
        results.append(detector.evaluate(signal))
    return results
