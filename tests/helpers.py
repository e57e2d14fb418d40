"""Reference rules and fixture builders shared by the test modules."""

from hyperq.constructions import Tournament
from hyperq.hashing import TAG_AUX_TRIPLE, bernoulli
from hyperq.multipartite import AuxiliaryHypergraph


def tournament_seed(n: int, accept) -> int:
    """Smallest seed whose n-vertex tournament's out-masks pass ``accept``."""
    seed = 0
    while not accept(Tournament(n, seed).out):
        seed += 1
    return seed


def arcs(orient, x: int, y: int, z: int) -> set[tuple[int, int]]:
    """The three directed arcs of the chosen rotation of a sorted triple."""
    if orient._cls(x, y, z) == 0:
        return {(x, y), (y, z), (z, x)}
    return {(x, z), (z, y), (y, x)}


def pair_direction(orient, u: int, v: int, w: int) -> int:
    """1 if the rotation chosen for {u, v, w} contains the arc u->v."""
    x, y, z = sorted((u, v, w))
    return 1 if (u, v) in arcs(orient, x, y, z) else 0


def gen_random_auxiliary(m: int, class_size: int, p_num: int, p_den: int,
                         seed: int) -> AuxiliaryHypergraph:
    sizes = {(i, j): class_size for i in range(m) for j in range(i + 1, m)}
    blocks = {}
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                blocks[(i, j, k)] = [
                    (a, b, c)
                    for a in range(class_size) for b in range(class_size)
                    for c in range(class_size)
                    if bernoulli(p_num, p_den, seed, TAG_AUX_TRIPLE, i, j, k, a, b, c)]
    return AuxiliaryHypergraph(m, sizes, blocks)


def has_triple(aux: AuxiliaryHypergraph, vertices: dict) -> bool:
    """``vertices`` maps the three sorted index pairs of a sorted index
    triple to class vertices; True when that block holds the triple."""
    (i, j), (_, k) = sorted(vertices)[:2]
    blk = aux.blocks.get((i, j, k))
    want = (vertices[(i, j)], vertices[(i, k)], vertices[(j, k)])
    return blk is not None and want in blk.triples
