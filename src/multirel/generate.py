"""Instance generators: exhaustive enumeration and seeded random sampling
of relations and multirelations, with property filters.

Randomness comes from splitmix64, chosen because it is tiny, fast and
portable: the stream for a given seed is identical everywhere.  Instance
``k`` of a random stream is generated from the sub-seed ``mix64(seed ^ k)``
so a stream can be split into chunks without changing its contents.

Every stream is built by one row model: an instance has a row for each
source element, drawn from the same list of candidates.  A subset draw
takes any subset of the candidates.  It builds relations (the candidates
are the bits ``1 << b``), general multirelations (all masks) and the inner
deterministic and inner univalent filters (the singleton masks, plus the
empty mask for inner univalent).  A pick draw takes exactly one candidate
row.  It builds the outer deterministic and outer univalent filters (one
mask, or for outer univalent also no mask).  Any other filter rejects
instances after they are built.

Exhaustive streams use numeric encoding order.  For a subset draw with
``n`` candidates, instance ``i`` takes candidate ``j`` into row ``a``
exactly when bit ``a * n + j`` of ``i`` is set.  Pick draws follow
``itertools.product`` order over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import POW_CAP, EnumerationTooLarge, PowersetTooLarge
from .mrel import MRel, _require_mask_ok, classify_mrel
from .rel import Carrier, Rel, classify_rel

_MASK64 = (1 << 64) - 1

# Exhaustive enumeration is capped at 2^EXHAUSTIVE_BITS instances.
EXHAUSTIVE_BITS = 24


def mix64(x: int) -> int:
    """The splitmix64 output function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """splitmix64 stream; state advances by the golden-ratio increment."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        x = self.state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def bernoulli(self, threshold: int) -> bool:
        return self.next_u64() < threshold


def density_threshold(p: float) -> int:
    if not 0.0 <= p <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return min(1 << 64, max(0, round(p * (1 << 64))))


@dataclass(frozen=True)
class GenSpec:
    """What to generate: shape, mode and an optional property filter.

    ``where`` lists flag names that must hold (flags of ``classify_rel``
    or ``classify_mrel`` depending on the kind).
    """

    shape: tuple[int, int]
    mode: str = "exhaustive"
    count: int = 0
    density: float = 0.5
    seed: int = 0
    where: frozenset[str] = field(default_factory=frozenset)


# Filters with constructive generators; the first one a spec names shapes
# its rows, and the rest reject.
_CONSTRUCTIVE = (
    "inner_deterministic",
    "inner_univalent",
    "outer_deterministic",
    "outer_univalent",
)


def _model(kind: str, spec: GenSpec) -> tuple[bool, Sequence, frozenset[str]]:
    """A stream's row model: whether each row picks one candidate (else it
    takes any subset of them), the candidates, and the filters left to
    reject by.  Picked candidates are whole multirelation rows."""
    nd = spec.shape[1]
    bits = [1 << b for b in range(nd)]
    if kind == "rel":
        return False, bits, frozenset(spec.where)
    if kind != "mrel":
        raise ValueError(f"unknown instance kind {kind!r}")
    shaping = next((f for f in _CONSTRUCTIVE if f in spec.where), None)
    residual = frozenset(spec.where) - {shaping}
    if shaping == "inner_deterministic":
        return False, bits, residual
    if shaping == "inner_univalent":
        return False, [0] + bits, residual
    if nd > POW_CAP:
        raise PowersetTooLarge(f"multirelation rows over 2^{nd} masks exceed cap 2^{POW_CAP}")
    if shaping is None:
        return False, range(1 << nd), residual
    singles = [(m,) for m in range(1 << nd)]
    return True, [()] + singles if shaping == "outer_univalent" else singles, residual


def _size(pick: bool, n: int, rows: int) -> int:
    return n**rows if pick else 1 << (n * rows)


def space_size(kind: str, spec: GenSpec) -> int:
    """How many instances the row model builds for ``spec``: the length of
    its exhaustive stream when every filter is constructive, otherwise a
    bound on that length.  Nothing is enumerated."""
    pick, candidates, _ = _model(kind, spec)
    return _size(pick, len(candidates), spec.shape[0])


def rejects(kind: str, spec: GenSpec) -> bool:
    """Whether the stream drops some instances it builds, so that it can be
    shorter than ``space_size``."""
    return bool(_model(kind, spec)[2])


def satisfies(value: Rel | MRel, needs: Iterable[str]) -> bool:
    """Whether ``value`` has every property flag named in ``needs``."""
    flags = classify_rel(value) if isinstance(value, Rel) else classify_mrel(value)
    return all(getattr(flags, name) for name in needs)


def instances(kind: str, spec: GenSpec) -> Iterator[Rel] | Iterator[MRel]:
    """Stream of generated instances; see the module docstring for order
    and determinism guarantees."""
    return _stream(kind, spec, *_model(kind, spec))


def _stream(kind, spec, pick, candidates, residual) -> Iterator:
    ns, nd = spec.shape
    src, dst = Carrier(ns), Carrier(nd)
    n = len(candidates)
    # a subset draw joins its chosen candidates into a row; candidates are
    # in range and ascending, so rows need no validation, and the mask
    # width is checked once, where the first value would be built
    join, make = (sum, Rel._trusted) if kind == "rel" else (tuple, MRel._trusted)
    if spec.mode == "exhaustive":
        size = _size(pick, n, ns)
        if size > 1 << EXHAUSTIVE_BITS:
            raise EnumerationTooLarge(
                f"exhaustive {kind} stream needs {size} instances (cap 2^{EXHAUSTIVE_BITS})",
                size,
            )
        if kind == "mrel":
            _require_mask_ok(dst)
        if pick:
            choices = product(candidates, repeat=ns)
        else:
            # the row of each n-bit chunk of the code; a relation row is the chunk
            rows = range(1 << n) if kind == "rel" else [
                join(c for j, c in enumerate(candidates) if chunk >> j & 1)
                for chunk in range(1 << n)
            ]
            width = (1 << n) - 1
            choices = (
                tuple(rows[code >> (a * n) & width] for a in range(ns)) for code in range(size)
            )
        for choice in choices:
            value = make(src, dst, choice)
            if not residual or satisfies(value, residual):
                yield value
        return

    threshold = density_threshold(spec.density)
    if kind == "mrel" and spec.count > 0:
        _require_mask_ok(dst)
    produced = 0
    candidate = 0
    budget = max(1000, spec.count * 1000)
    while produced < spec.count:
        if candidate >= budget:
            raise EnumerationTooLarge(
                f"rejection sampling for {sorted(spec.where)} exhausted after "
                f"{candidate} candidates",
                candidate,
            )
        rng = SplitMix64(mix64(spec.seed ^ candidate))
        candidate += 1
        if pick:
            choice = tuple(candidates[rng.below(n)] for _ in range(ns))
        else:
            choice = tuple(
                join(c for c in candidates if rng.bernoulli(threshold)) for _ in range(ns)
            )
        value = make(src, dst, choice)
        if residual and not satisfies(value, residual):
            continue
        produced += 1
        yield value


def count_matching(kind: str, spec: GenSpec) -> int:
    """Cardinality of the stream the same spec would produce."""
    return sum(1 for _ in instances(kind, spec))
