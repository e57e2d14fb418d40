"""Deterministic 64-bit hashing behind every seeded choice.

All randomness in this package (pair colours, tournament directions, triple
orientations, edge coin flips) is a pure function of the run seed and the
canonical tuple it concerns.  Nothing is drawn sequentially, so results never
depend on generation order, platform, or worker count, and restricting a
construction to an initial vertex segment reproduces the smaller construction
exactly.  The mixer is the splitmix64 finalizer.

The hash of a tuple extends the hash of its prefix by one mixing round per
part: ``tuple_hash(seed, tag, *parts, p)`` equals
``mix64((tuple_hash(seed, tag, *parts) ^ (p + 1) * GOLDEN) & MASK64)``.  So a
generator that draws every extension of one prefix hashes the prefix once and
takes all the extensions from one ``child_hashes`` (or ``odd_children``)
call, which runs that round on all of them at once.
"""

import sys

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Stream tags.  Distinct tags keep unrelated choices on independent streams.
TAG_TOURNAMENT = 0x11
TAG_PAIR_COLOUR = 0x22
TAG_TRIPLE_ORIENT = 0x33
TAG_RANDOM_TRIPLE = 0x44
TAG_MP_EDGE = 0x55
TAG_AUX_TRIPLE = 0x66
TAG_SUBSEED = 0x77


def mix64(z: int) -> int:
    """splitmix64 finalizer: a fixed bijective scrambling of 64 bits."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def tuple_hash(seed: int, tag: int, *parts: int) -> int:
    """Hash (seed, tag, *parts) to a uniform-looking 64-bit value."""
    h = mix64((seed ^ tag * GOLDEN) & MASK64)
    for p in parts:
        h = mix64((h ^ (p + 1) * GOLDEN) & MASK64)
    return h


# child_hashes and odd_children run the prefix step on every extension at
# once: extension i takes the 128-bit lane i of one int, its hash in the low
# 64 bits, the high 64 catching each product's carry until the mask clears it
_LANE = MASK64.to_bytes(16, "little")
_ODD_DIGIT = bytes.maketrans(bytes(range(256)), b"01" * 128)  # byte -> its parity digit
# the low halves of the lanes as native 8-byte slots of the lanes' bytes in
# native order: slot 2i, or, lanes and halves reversed, 2 (count - 1 - i) + 1
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)
_steps = b""  # lane p holds (p + 1) * GOLDEN & MASK64; rebuilt whole to grow


def _child_lanes(h: int, lo: int, hi: int) -> int:
    global _steps
    if len(_steps) < 16 * hi:
        _steps = b"".join(((p + 1) * GOLDEN & MASK64).to_bytes(16, "little")
                          for p in range(max(hi, len(_steps) // 8)))
    count = hi - lo
    lanes = int.from_bytes(_LANE * count, "little")
    z = (int.from_bytes(_steps[16 * lo:16 * hi], "little")
         ^ int.from_bytes(h.to_bytes(16, "little") * count, "little"))
    z = ((z ^ z >> 30) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ z >> 27) & lanes) * 0x94D049BB133111EB & lanes
    return z ^ z >> 31


def child_hashes(h: int, lo: int, hi: int) -> list[int]:
    """``[tuple_hash(seed, tag, *parts, p) for p in range(lo, hi)]`` given
    ``h = tuple_hash(seed, tag, *parts)``, for 0 <= lo."""
    if hi <= lo:
        return []
    raw = _child_lanes(h, lo, hi).to_bytes(16 * (hi - lo), sys.byteorder)
    return memoryview(raw).cast("Q")[_LOW_HALVES].tolist()


def odd_children(h: int, lo: int, hi: int) -> int:
    """The mask of the p in range(lo, hi) whose ``child_hashes`` entry is
    odd, for 0 <= lo."""
    if hi <= lo:
        return 0
    raw = _child_lanes(h, lo, hi).to_bytes(16 * (hi - lo), "big")
    # the low byte of each lane, last lane first, as a binary numeral
    return int(raw[15::16].translate(_ODD_DIGIT), 2) << lo


def bernoulli_cut(num: int, den: int) -> int:
    """The cut of a Bernoulli(num/den) trial: a 64-bit hash h passes it when
    ``h * den < num << 64``.  Raises ValueError unless den >= 1 and
    0 <= num <= den."""
    if not (den >= 1 and 0 <= num <= den):
        raise ValueError("probability %d/%d is not in [0, 1]" % (num, den))
    return num << 64


def bernoulli(num: int, den: int, seed: int, tag: int, *parts: int) -> bool:
    """Deterministic Bernoulli(num/den) trial; pure integer comparison."""
    return tuple_hash(seed, tag, *parts) * den < bernoulli_cut(num, den)


def subseed(seed: int, *parts: int) -> int:
    """Derive an independent child seed, e.g. one per restart or cell."""
    return tuple_hash(seed, TAG_SUBSEED, *parts)
