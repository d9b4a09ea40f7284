"""Predictor interface and accuracy/coverage accounting.

Every value predictor in this package — the paper's gDiff family as well as
the rebuilt baselines — follows the same two-phase protocol that mirrors
the pipeline integration described in the paper:

* :meth:`ValuePredictor.predict` is called at *dispatch* with the static PC
  and returns either a predicted machine word or ``None`` (no prediction).
* :meth:`ValuePredictor.update` is called at *write-back* with the actual
  result, and trains the predictor.

:class:`PredictionStats` implements both accuracy definitions used in the
paper:

* **raw accuracy** (Figures 8–10, profile studies without confidence):
  correct predictions over *all* value-producing instructions seen.
* **gated accuracy / coverage** (Figures 13, 16, 18): a 3-bit confidence
  counter filters weak predictions; accuracy is computed over confident
  predictions only and coverage is the fraction of instructions that
  received a confident prediction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional


class ValuePredictor(ABC):
    """Abstract two-phase (predict-at-dispatch / update-at-writeback) predictor."""

    #: Human-readable predictor name used in reports.
    name: str = "predictor"

    @abstractmethod
    def predict(self, pc: int) -> Optional[int]:
        """Return a predicted value for the instruction at *pc*, or ``None``."""

    @abstractmethod
    def update(self, pc: int, actual: int) -> None:
        """Train the predictor with the actual result of *pc*."""

    def speculative_update(self, pc: int) -> None:
        """Advance speculative state as if the last prediction were right.

        Section 3.1 notes that back-to-back instances of the same
        instruction in flight call "for the speculative update based on
        the prediction" (citing the branch-history analogue [10]).
        Predictors that support it roll prediction state forward here;
        the caller retires or squashes the speculation at write-back via
        :meth:`retire_speculation` / :meth:`squash_speculation`.  The
        defaults are no-ops.
        """

    def retire_speculation(self, pc: int) -> None:
        """One speculatively-updated instance of *pc* has committed."""

    def squash_speculation(self, pc: int) -> None:
        """A misprediction was detected: discard speculative state."""

    def reset(self) -> None:
        """Discard all learned state (default: rebuild via __init__ override)."""
        raise NotImplementedError


@dataclass
class PredictionStats:
    """Accuracy/coverage accounting for one predictor run.

    Attributes:
        attempts: value-producing instructions offered to the predictor.
        predictions: attempts for which the predictor returned a value.
        correct: predictions that matched the actual value.
        confident: predictions that passed the confidence gate.
        confident_correct: confident predictions that were correct.
    """

    attempts: int = 0
    predictions: int = 0
    correct: int = 0
    confident: int = 0
    confident_correct: int = 0

    def record(
        self,
        predicted: Optional[int],
        actual: int,
        confident: bool = False,
    ) -> bool:
        """Record one prediction outcome; returns True if it was correct."""
        self.attempts += 1
        if predicted is None:
            return False
        self.predictions += 1
        is_correct = predicted == actual
        if is_correct:
            self.correct += 1
        if confident:
            self.confident += 1
            if is_correct:
                self.confident_correct += 1
        return is_correct

    @property
    def raw_accuracy(self) -> float:
        """Correct predictions over all attempts (profile-study definition)."""
        if not self.attempts:
            return 0.0
        return self.correct / self.attempts

    @property
    def accuracy(self) -> float:
        """Correct confident predictions over confident predictions."""
        if not self.confident:
            return 0.0
        return self.confident_correct / self.confident

    @property
    def coverage(self) -> float:
        """Confident predictions over all attempts."""
        if not self.attempts:
            return 0.0
        return self.confident / self.attempts

    def merge(self, other: "PredictionStats") -> "PredictionStats":
        """Accumulate another stats object into this one (and return self)."""
        self.attempts += other.attempts
        self.predictions += other.predictions
        self.correct += other.correct
        self.confident += other.confident
        self.confident_correct += other.confident_correct
        return self

    def as_dict(self) -> Dict[str, float]:
        return {
            "attempts": self.attempts,
            "predictions": self.predictions,
            "correct": self.correct,
            "confident": self.confident,
            "confident_correct": self.confident_correct,
            "raw_accuracy": self.raw_accuracy,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
        }

    def __str__(self) -> str:
        return (
            f"raw={self.raw_accuracy:.1%} "
            f"acc={self.accuracy:.1%} cov={self.coverage:.1%} "
            f"({self.attempts} attempts)"
        )


class ConstantPredictor(ValuePredictor):
    """Degenerate predictor that always predicts a fixed value.

    Useful in tests and as a floor baseline.
    """

    name = "constant"

    def __init__(self, value: int = 0):
        self.value = value

    def predict(self, pc: int) -> Optional[int]:
        return self.value

    def update(self, pc: int, actual: int) -> None:
        pass

    def reset(self) -> None:
        pass
