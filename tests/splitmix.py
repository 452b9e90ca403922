"""The scalar splitmix64 stream, a reference for ``generate``'s inlined
lanes: a random candidate with sub-seed ``s`` reads the outputs of
``SplitMix64(s)`` in order, one per candidate of a subset draw and one per
row of a pick draw.
"""

from __future__ import annotations

from multirel import mix64
from multirel.generate import GAMMA

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; state advances by the golden-ratio increment."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        x = mix64(self.state)
        self.state = (self.state + GAMMA) & _MASK64
        return x

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def bernoulli(self, threshold: int) -> bool:
        return self.next_u64() < threshold
