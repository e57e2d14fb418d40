"""Deterministic 64-bit hashing behind every seeded choice.

All randomness in this package (pair colours, tournament directions, triple
orientations, edge coin flips) is a pure function of the run seed and the
canonical tuple it concerns.  Nothing is drawn sequentially, so results never
depend on generation order, platform, or worker count, and restricting a
construction to an initial vertex segment reproduces the smaller construction
exactly.  The mixer is the splitmix64 finalizer.
"""

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


def bernoulli(num: int, den: int, seed: int, tag: int, *parts: int) -> bool:
    """Deterministic Bernoulli(num/den) trial; pure integer comparison."""
    return tuple_hash(seed, tag, *parts) * den < num << 64


def subseed(seed: int, *parts: int) -> int:
    """Derive an independent child seed, e.g. one per restart or cell."""
    return tuple_hash(seed, TAG_SUBSEED, *parts)
