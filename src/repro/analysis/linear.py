"""Exploring Equation 1: general linear combinations over global history.

Section 2 formalises global computational locality as

    x_N = a_{N-1} x_{N-1} + a_{N-2} x_{N-2} + ... + a_1 x_1 + a_0     (1)

and immediately restricts to the variable-stride special case

    x_N = x_{N-k} + a_0                                               (2)

"due to the mathematical nature of the problem and the hardware
complexity that a general treatment would require."  This module
quantifies what that restriction costs, offline:

* :func:`two_term_predictability` — the next step up from Equation 2:
  for each static instruction, search for a pair of distances (j, k) and
  integer coefficients in a small set such that
  ``x_N = c_j * x_{N-j} + c_k * x_{N-k} + a_0`` repeats.  Differences of
  two history values (c_j=1, c_k=-1) cover copy-with-adjust idioms that
  single-term stride misses.
* :func:`equation1_ceiling` — a least-squares fit of full Equation 1 per
  instruction over a training window, scored on a held-out window (needs
  numpy; exact integer match after rounding).  This is an *oracle-style*
  ceiling, not a hardware proposal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..trace.isa import Instruction
from ..wordops import WORD_MASK, wsub

#: Coefficient pairs searched by the two-term detector: (c_j, c_k).
TWO_TERM_COEFFS: Tuple[Tuple[int, int], ...] = ((1, 1), (1, -1), (2, -1))


def _signed(x: int) -> int:
    x &= WORD_MASK
    return x - (1 << 64) if x >> 63 else x


def two_term_predictability(
    trace: Iterable[Instruction],
    max_distance: int = 8,
) -> Dict[str, float]:
    """Measure one- vs two-term global computational locality.

    For every value-producing occurrence, check (a) Equation 2 — some
    single distance whose difference repeats — and (b) the two-term forms
    ``c_j x_{N-j} + c_k x_{N-k} + a_0`` for the coefficient pairs in
    :data:`TWO_TERM_COEFFS`, again with a repeat-to-confirm rule.

    Returns a dict with the fraction of occurrences predictable by the
    one-term model, by the two-term model, and the marginal gain.
    """
    history: List[int] = []
    # Per-PC: previous residual vectors for each model instance.
    prev_one: Dict[int, List[Optional[int]]] = {}
    prev_two: Dict[int, Dict[Tuple[int, int, int, int], int]] = {}
    one_hits = two_hits = scored = 0

    for insn in trace:
        if not insn.produces_value:
            continue
        value = insn.value
        depth = min(max_distance, len(history))
        window = history[-depth:][::-1]  # distance 1 first

        one = [wsub(value, window[k]) for k in range(depth)]
        one += [None] * (max_distance - depth)

        two: Dict[Tuple[int, int, int, int], int] = {}
        for j in range(depth):
            for k in range(j + 1, depth):
                for cj, ck in TWO_TERM_COEFFS:
                    combo = (cj * window[j] + ck * window[k]) & WORD_MASK
                    two[(j, k, cj, ck)] = wsub(value, combo)

        pc = insn.pc
        if pc in prev_one:
            scored += 1
            if any(a is not None and a == b
                   for a, b in zip(one, prev_one[pc])):
                one_hits += 1
                two_hits += 1
            else:
                previous = prev_two.get(pc, {})
                if any(previous.get(key) == residual
                       for key, residual in two.items()):
                    two_hits += 1
        prev_one[pc] = one
        prev_two[pc] = two
        history.append(value)
        if len(history) > max_distance:
            del history[: len(history) - max_distance]

    if not scored:
        return {"one_term": 0.0, "two_term": 0.0, "gain": 0.0}
    return {
        "one_term": one_hits / scored,
        "two_term": two_hits / scored,
        "gain": (two_hits - one_hits) / scored,
    }


def equation1_ceiling(
    trace: Iterable[Instruction],
    max_distance: int = 8,
    train_fraction: float = 0.5,
    min_occurrences: int = 32,
) -> Dict[str, float]:
    """Least-squares Equation 1 fit per instruction (oracle ceiling).

    For each static instruction with enough occurrences, fit coefficients
    (a_{N-1}..a_1, a_0) on the first ``train_fraction`` of its
    occurrences by least squares over the signed history window, then
    score exact integer matches (after rounding) on the rest.

    Returns {"fit_accuracy": fraction of held-out occurrences matched,
    "covered": fraction of dynamic occurrences belonging to fitted PCs}.
    Requires numpy.
    """
    import numpy as np

    history: List[int] = []
    samples: Dict[int, List[Tuple[List[int], int]]] = {}
    for insn in trace:
        if not insn.produces_value:
            continue
        if len(history) >= max_distance:
            window = [_signed(v) for v in history[-max_distance:]][::-1]
            samples.setdefault(insn.pc, []).append(
                (window, _signed(insn.value)))
        history.append(insn.value)
        if len(history) > max_distance:
            del history[: len(history) - max_distance]

    total = sum(len(v) for v in samples.values())
    hits = tested = covered = 0
    for pc, rows in samples.items():
        if len(rows) < min_occurrences:
            continue
        covered += len(rows)
        split = int(len(rows) * train_fraction)
        train, test = rows[:split], rows[split:]
        if not train or not test:
            continue
        matrix = np.array([w + [1] for w, _ in train], dtype=np.float64)
        target = np.array([y for _, y in train], dtype=np.float64)
        coeffs, *_ = np.linalg.lstsq(matrix, target, rcond=None)
        for window, actual in test:
            prediction = float(np.dot(coeffs, np.array(window + [1.0])))
            tested += 1
            if round(prediction) == actual:
                hits += 1
    return {
        "fit_accuracy": hits / tested if tested else 0.0,
        "covered": covered / total if total else 0.0,
    }
