"""Set-associative cache model with LRU replacement.

Timing-only: the cache tracks which lines are resident to classify each
access as hit or miss; data always comes from the trace.  Used for both
the I-cache (fetch stalls) and D-cache (load latency, the execution
variation that Section 4 shows disrupts the speculative GVQ, and the
"missing loads" filter of Figure 18b).
"""

from __future__ import annotations

from typing import List

from .config import CacheConfig


class Cache:
    """An LRU set-associative cache keyed by line address."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = config.size_bytes // (config.ways * config.line_bytes)
        self.ways = config.ways
        self._line_shift = config.line_bytes.bit_length() - 1
        # Each set is an MRU-ordered list of line tags.
        self._lines: List[List[int]] = [[] for _ in range(self.sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Access *addr*; returns True on hit.  Misses allocate the line."""
        self.accesses += 1
        line = addr >> self._line_shift
        index = line % self.sets
        bucket = self._lines[index]
        try:
            pos = bucket.index(line)
        except ValueError:
            self.misses += 1
            bucket.insert(0, line)
            if len(bucket) > self.ways:
                bucket.pop()
            return False
        if pos:
            bucket.insert(0, bucket.pop(pos))
        return True

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        line = addr >> self._line_shift
        return line in self._lines[line % self.sets]

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def clear(self) -> None:
        self._lines = [[] for _ in range(self.sets)]
        self.accesses = 0
        self.misses = 0
