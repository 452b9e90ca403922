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
mask, or for outer univalent also no mask).  Any other filter rejects.

A random candidate reads the splitmix64 stream of its sub-seed: a subset
draw takes candidate ``j`` of a row when that row's ``j``-th output is
below ``density_threshold(density)``, and a pick draw takes candidate
``output % n`` with one output per row.  Output ``k`` is the output
function at state ``sub-seed + (k+1) * GAMMA``, so a candidate's outputs
are computed together, each in a 64-bit lane of one wide int.  A lane
sits in its own 128-bit slot, so no multiply or shift carries into the
next one, and one mask per step brings each lane back to 64 bits.  The
lanes are computed one block of whole rows at a time: as many rows as fit
in 64 lanes, and at least one.  The streams are ``SplitMix64``'s bit for
bit.

Every property flag is row-wise: a value has it when each of its rows
passes the flag's test in its class's ``FLAGS`` table (``Rel.FLAGS`` or
``MRel.FLAGS``), combined by ``rel.row_test``; ``test`` also needs carriers
of one size.  So a random candidate is dropped at its first failing row,
before its later blocks are computed.  That leaves every stream as it was:
candidate ``k`` reads only its own sub-seed, so how far an earlier
candidate got changes no later draw.  Only ``test`` reads the row index,
so a stream remembers each draw's verdict per row when ``test`` filters it
and once for all rows otherwise.

Exhaustive streams use numeric encoding order.  For a subset draw with
``n`` candidates, instance ``i`` takes candidate ``j`` into row ``a``
exactly when bit ``a * n + j`` of ``i`` is set, so row 0 varies fastest.
Pick draws follow ``itertools.product`` order over the rows, so row 0
varies slowest.  A filtered exhaustive stream drops the rows that fail
first and enumerates the rest in the same order.  So ``space_size``, the product over source elements of the number of rows
that pass, is the exact length of every exhaustive stream.  The cap of
2^EXHAUSTIVE_BITS bounds both the candidate rows a stream tests and its
length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, permutations, product
from math import prod
from typing import Iterator, Sequence

from .errors import EnumerationTooLarge
from .mrel import MRel, _require_mask_ok
from .rel import Carrier, Rel, _require_pow_ok, row_test

# imported only so that perfbench's tracer can rebind them: nothing here
# calls either, so the tracer counts no classification made here until
# generate has a counter of its own (ROADMAP item 1)
from .mrel import classify_mrel  # noqa: F401
from .rel import classify_rel  # noqa: F401

_MASK64 = (1 << 64) - 1
# splitmix64: the state advances by GAMMA, and each output is the state
# mixed by two xor-shift-multiply rounds and a final xor-shift
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# An exhaustive stream tests at most 2^EXHAUSTIVE_BITS candidate rows and
# yields at most 2^EXHAUSTIVE_BITS instances.
EXHAUSTIVE_BITS = 24


def mix64(x: int) -> int:
    """The splitmix64 output function: one step from state ``x``."""
    x = (x + GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * MIX2) & _MASK64
    return x ^ (x >> 31)


def _lane(x: int) -> bytes:
    """A 64-bit value in its 128-bit lane slot, little-endian."""
    return x.to_bytes(16, "little")


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


def density_threshold(p: float) -> int:
    if not 0.0 <= p <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    return min(1 << 64, max(0, round(p * (1 << 64))))


@dataclass(frozen=True)
class GenSpec:
    """What to generate: shape, mode and an optional property filter.

    ``where`` lists flag names that must hold (flags of ``classify_rel``
    or ``classify_mrel`` depending on the kind); any other name raises
    ValueError.
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

# The class of each kind's values: its flag table and trusted constructor.
_CLASSES = {"rel": Rel, "mrel": MRel}


def _model(kind: str, spec: GenSpec) -> tuple[bool, Sequence, frozenset[str]]:
    """A stream's row model: whether each row picks one candidate (else it
    takes any subset of them), the candidates, and the filters left to
    reject by.  Picked candidates are whole multirelation rows."""
    if kind not in _CLASSES:
        raise ValueError(f"unknown instance kind {kind!r}")
    unknown = sorted(set(spec.where) - set(_CLASSES[kind].FLAGS))
    if unknown:
        raise ValueError(f"unknown {kind} flag {unknown[0]!r}")
    nd = spec.shape[1]
    bits = [1 << b for b in range(nd)]
    if kind == "rel":  # a relation row is the subset of the bits it takes
        return False, bits, frozenset(spec.where)
    shaping = next((f for f in _CONSTRUCTIVE if f in spec.where), None)
    residual = frozenset(spec.where) - {shaping}
    if shaping == "inner_deterministic":
        return False, bits, residual
    if shaping == "inner_univalent":
        return False, [0] + bits, residual
    _require_pow_ok(Carrier(nd))
    if shaping is None:
        return False, range(1 << nd), residual
    singles = [(m,) for m in range(1 << nd)]
    return True, [()] + singles if shaping == "outer_univalent" else singles, residual


# The row an exhaustive key stands for: a pick key is an index into the
# candidates and a subset key an n-bit chunk taking candidate j when bit j is
# set.  Candidates are in range and ascending, so rows need no validation.
def _row_of(kind: str, pick: bool, candidates: Sequence):
    if pick:
        return candidates.__getitem__
    if kind == "rel":
        return int  # the candidates are the bits, so the chunk is the row
    return lambda chunk: tuple(c for j, c in enumerate(candidates) if chunk >> j & 1)


def _capped(kind: str, n: int, what: str) -> None:
    if n > 1 << EXHAUSTIVE_BITS:
        message = f"exhaustive {kind} stream needs {n} {what} (cap 2^{EXHAUSTIVE_BITS})"
        raise EnumerationTooLarge(message, n)


def _allowed(kind, spec, pick, candidates, residual) -> list[Sequence]:
    """Each source element's candidate rows that pass the ``residual``
    filters, in draw order; the exhaustive stream is their product."""
    ns, nd = spec.shape
    keys = range(len(candidates) if pick else 1 << len(candidates))
    _capped(kind, ns * len(keys), "row tests")
    passes = row_test(_CLASSES[kind].FLAGS, residual, ns, nd)
    if passes is None:
        return [[]]  # no value passes, so the product is empty
    row_of = _row_of(kind, pick, candidates)
    return [[row for row in map(row_of, keys) if passes(a, row)] for a in range(ns)]


def space_size(kind: str, spec: GenSpec) -> int:
    """The exact length of the exhaustive stream for ``spec``: a closed form
    when no filter rejects, else the product over source elements of the
    number of candidate rows that pass.  Raises EnumerationTooLarge rather
    than make more than 2^EXHAUSTIVE_BITS row tests."""
    pick, candidates, residual = model = _model(kind, spec)
    if residual:
        return prod(map(len, _allowed(kind, spec, *model)))
    n, ns = len(candidates), spec.shape[0]
    return n**ns if pick else 1 << (n * ns)


def _group(shape: tuple[int, int], diagonal: bool) -> list[tuple[tuple[int, ...], ...]]:
    """The permutations ``(p, q)`` of the source and target elements of
    arrows of ``shape``: every pair, or with ``diagonal`` one permutation of
    a carrier that is both.  The identity comes first."""
    ps = list(permutations(range(shape[0])))
    return [(p, p) for p in ps] if diagonal else list(product(ps, permutations(range(shape[1]))))


def _orbits(values: Iterator, group: list) -> Iterator[tuple[Rel | MRel, int]]:
    """The values of an exhaustive stream that come first in their orbits
    under ``group`` (see ``_group``), in stream order, each with the size of
    its orbit.  The stream must hold the orbit of each of its values, as
    every stream whose filters ``group`` keeps does: all row tests keep the
    stream under any permutations, but ``test`` only under diagonal ones."""
    seen = set()
    for v in values:
        if v.rows not in seen:
            orbit = {v._permuted(p, q).rows for p, q in group}
            seen |= orbit
            yield v, len(orbit)


def instances(kind: str, spec: GenSpec) -> Iterator[Rel] | Iterator[MRel]:
    """Stream of generated instances; see the module docstring for order
    and determinism guarantees."""
    return _stream(kind, spec, *_model(kind, spec))


def _stream(kind, spec, pick, candidates, residual) -> Iterator:
    ns, nd = spec.shape
    src, dst = Carrier(ns), Carrier(nd)
    cls = _CLASSES[kind]
    make = cls._trusted
    # the mask width is checked once, where the first value would be built
    if spec.mode == "exhaustive":
        # the length is capped first, so a stream over the cap with no filter
        # builds no rows; a filtered stream tests its rows twice, within the cap
        _capped(kind, space_size(kind, spec), "instances")
        if cls is MRel:
            _require_mask_ok(dst)
        allowed = _allowed(kind, spec, pick, candidates, residual)
        if pick:
            yield from (make(src, dst, choice) for choice in product(*allowed))
        else:  # row 0 varies fastest
            yield from (make(src, dst, choice[::-1]) for choice in product(*allowed[::-1]))
        return

    n = len(candidates)
    passes = row_test(cls.FLAGS, residual, ns, nd)
    build = sum if kind == "rel" else tuple  # a subset row from its candidates
    threshold = density_threshold(spec.density)
    if cls is MRel and spec.count > 0:
        _require_mask_ok(dst)
    produced = 0
    budget = max(1000, spec.count * 1000)
    candidate = 0 if passes else budget  # no candidate can pass
    # a memo maps a draw to its row, or to None if the row fails; only the
    # ``test`` flag reads the row index, so without it the rows share one
    memos = [{} for _ in range(ns)] if "test" in residual else [{}] * ns
    width = 1 if pick else n  # a row's draws, one lane each
    per = max(1, 64 // max(width, 1))  # whole rows in a block
    blocks = []
    for r in range(0, ns, per):
        rows = range(r, min(ns, r + per))
        lanes = range(r * width, (r + len(rows)) * width)
        ones = int.from_bytes(_lane(1) * len(lanes), "little")
        steps = b"".join(_lane((k + 1) * GAMMA & _MASK64) for k in lanes)
        blocks.append((
            [(a, memos[a], i * width) for i, a in enumerate(rows)],
            ones, int.from_bytes(steps, "little"), ones * _MASK64,
            ones * ((1 << 64) + threshold - 1), 16 * len(lanes),
        ))
    mix1, mix2, mask = MIX1, MIX2, _MASK64  # locals for the loop
    while produced < spec.count:
        if candidate >= budget:
            raise EnumerationTooLarge(
                f"rejection sampling for {sorted(spec.where)} exhausted after "
                f"{candidate} candidates",
                candidate,
            )
        # splitmix64 from the candidate's sub-seed, one lane per output; see
        # the module docstring
        state = mix64(spec.seed ^ candidate)
        candidate += 1
        choice = []
        for rows, ones, steps, low, limit, size in blocks:
            x = (state * ones + steps) & low
            x = (x ^ x >> 30) & low
            x = x * mix1 & low
            x = (x ^ x >> 27) & low
            x = x * mix2 & low
            x = (x ^ x >> 31) & low
            if not pick:  # 2^64 + threshold - 1 - output has bit 64 set, so
                # byte 8 of its slot is 1, exactly when output < threshold
                flags = (limit - x).to_bytes(size, "little")[8::16]
            for a, memo, i in rows:
                key = (x >> (i << 7) & mask) % n if pick else flags[i : i + n]
                if key not in memo:
                    row = candidates[key] if pick else build(compress(candidates, key))
                    memo[key] = row if passes(a, row) else None
                row = memo[key]
                if row is None:
                    break
                choice.append(row)
            if row is None:
                break
        else:
            produced += 1
            yield make(src, dst, tuple(choice))

