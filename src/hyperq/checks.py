"""Acceptance suite: every criterion as a self-contained check.

``run_suite`` executes the registered checks at level "quick" (reduced sizes,
about a minute) or "full" (the stated sizes and tolerances) and prints one
pass/fail line per criterion.  The same functions back tests/test_acceptance.py.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from typing import Callable

from . import constructions as cons
from . import detectors as det
from .certifiers import (
    pair_deviation,
    sample_set_triple,
    triangle_bound_check,
    weak_deviation,
)
from .core import Hypergraph3
from .hashing import subseed
from .multipartite import (
    count_triangles_mp,
    explore_extremal,
    gen_random_aux_block,
    gen_random_multipartite,
    half_split,
    mean_square_profile,
    project_auxiliary,
)
from .oracles import (
    enumerate_pair_deviation,
    naive_best_triangle_free_ratio,
    naive_count_k4_minus,
    naive_weak_deviation,
)


CheckResult = namedtuple("CheckResult", "check_id name passed detail seconds")


def _density_cells(level: str):
    # construction, n, k, target, tolerance
    if level == "full":
        seeds = list(range(10))
        return seeds, [
            ("tournament3", 400, None, Fraction(1, 4), 0.005),
            ("colouring-kk", 300, 4, Fraction(1, 2), 0.01),
            ("party6", 300, None, Fraction(3, 4), 0.01),
            ("rainbow27", 300, None, Fraction(1, 27), 0.005),
            ("sk-free", 300, 4, Fraction(1, 3), 0.01),
            ("sk-free", 300, 5, Fraction(7, 16), 0.01),
            ("oriented4", 100, None, Fraction(1, 8), 0.01),
            ("leader-tan", 100, None, Fraction(1, 4), 0.02),
        ]
    seeds = list(range(3))
    return seeds, [
        ("tournament3", 200, None, Fraction(1, 4), 0.005),
        ("colouring-kk", 150, 4, Fraction(1, 2), 0.01),
        ("party6", 150, None, Fraction(3, 4), 0.01),
        ("rainbow27", 150, None, Fraction(1, 27), 0.005),
        ("sk-free", 150, 4, Fraction(1, 3), 0.01),
        ("sk-free", 150, 5, Fraction(7, 16), 0.01),
        ("oriented4", 60, None, Fraction(1, 8), 0.01),
        ("leader-tan", 60, None, Fraction(1, 4), 0.02),
    ]


def check_densities(level: str) -> tuple[bool, str]:
    seeds, table = _density_cells(level)
    problems = []
    notes = []
    for name, n, k, target, tol in table:
        values = []
        worst_cell = 0.0
        for seed in seeds:
            t0 = time.perf_counter()
            h = cons.CONSTRUCTIONS[name](n, k, seed)
            worst_cell = max(worst_cell, time.perf_counter() - t0)
            values.append(h.density().density_fraction)
        mean = float(sum(values) / len(values))
        off = abs(mean - float(target))
        label = name if k is None else "%s(k=%d)" % (name, k)
        notes.append("%s mean=%.4f" % (label, mean))
        if off > tol:
            problems.append("%s mean %.4f misses %.4f +- %.3g"
                            % (label, mean, float(target), tol))
        if worst_cell > 10.0:
            problems.append("%s cell took %.1fs > 10s" % (label, worst_cell))
    return not problems, "; ".join(problems or notes)


def check_freeness(level: str) -> tuple[bool, str]:
    if level == "full":
        seeds = range(5)
        n_tour, n_kk, n_party, n_sk, n_f4 = 120, 80, 40, 100, 60
    else:
        seeds = range(2)
        n_tour, n_kk, n_party, n_sk, n_f4 = 60, 40, 30, 50, 40
    problems = []
    t0 = time.perf_counter()
    for s in seeds:
        if det.find_k4_minus(cons.gen_tournament_3hg(n_tour, s)) is not None:
            problems.append("k4minus in tournament seed %d" % s)
    tour_time = time.perf_counter() - t0
    if level == "full" and tour_time > 60:
        problems.append("tournament scan took %.1fs > 60s" % tour_time)
    for s in seeds:
        if det.find_clique3(cons.gen_colouring_kk_free(n_kk, 4, s), 4) is not None:
            problems.append("K4 in colouring-kk seed %d" % s)
        if det.find_clique3(cons.gen_party_of_six(n_party, s), 6) is not None:
            problems.append("K6 in party6 seed %d" % s)
        if det.find_sk(cons.gen_sk_free(n_sk, 4, s), 4) is not None:
            problems.append("S4 in sk-free seed %d" % s)
        if det.find_f4(cons.gen_oriented_4hg(n_f4, s)) is not None:
            problems.append("F4 in oriented4 seed %d" % s)
        if det.find_f4(cons.gen_leader_tan(n_f4, s)) is not None:
            problems.append("F4 in leader-tan seed %d" % s)
    return not problems, "; ".join(problems) or \
        "zero witnesses over %d seeds per construction" % len(list(seeds))


def check_oracle_equivalence(level: str) -> tuple[bool, str]:
    # (n, d or None for its own density): n = 15 takes four blocks of the
    # exact walk, two of them odd, and d = 1/10^20 fields past 8 bytes
    weak_cases = [(8 + i % 5, None) for i in range(100 if level == "full" else 20)]
    weak_cases += [(15, None), (10, Fraction(1, 10 ** 20))]
    weak_instances = len(weak_cases)
    pair_instances = 20 if level == "full" else 6
    k4_sizes = (10, 15, 20, 25) if level == "full" else (10, 15)
    problems = []
    for i, (n, d) in enumerate(weak_cases):
        h = cons.gen_random_3hg(n, 3, 10, subseed(1000, i))
        if d is None:
            d = h.density().density_fraction
        rep = weak_deviation(h, d, mode="exact")
        fast = rep.max_deviation
        slow, _ = naive_weak_deviation(h, d)
        if fast != slow:
            problems.append("weak mismatch on instance %d" % i)
        members = set(rep.witness)
        inside = sum(1 for e in h.iter_edges() if members.issuperset(e))
        if abs(inside - d * math.comb(len(rep.witness), 3)) != fast:
            problems.append("weak witness misses the maximum on instance %d" % i)
        search = weak_deviation(h, d, mode="search", restarts=4, seed=i).max_deviation
        if search > fast:
            problems.append("search exceeded exact on instance %d" % i)
    for i in range(pair_instances):
        n = 6 + i % 3
        h = cons.gen_random_3hg(n, 1, 2, subseed(2000, i))
        d = h.density().density_fraction
        rep = pair_deviation(h, d, mode="exact")
        fast = rep.max_deviation
        slow = enumerate_pair_deviation(h, d)
        if fast != slow:
            problems.append("pair mismatch on instance %d" % i)
        members, x_pairs = set(rep.witness[0]), set(rep.witness[1])
        # an edge counts once for each of its pairs in X whose third vertex is in U
        inside = sum(1 for e in h.iter_edges() for t in range(3)
                     if e[t] in members and e[:t] + e[t + 1:] in x_pairs)
        if abs(inside - d * len(members) * len(x_pairs)) != fast:
            problems.append("pair witness misses the maximum on instance %d" % i)
    for n in k4_sizes:
        for s in range(3):
            h = cons.gen_random_3hg(n, 3, 10, subseed(3000, n, s))
            if det.count_k4_minus(h) != naive_count_k4_minus(h):
                problems.append("k4minus count mismatch n=%d seed %d" % (n, s))
    return not problems, "; ".join(problems) or \
        "%d weak + %d pair + %d count instances agree exactly" % (
            weak_instances, pair_instances, 3 * len(k4_sizes))


def check_sieve_bound(level: str) -> tuple[bool, str]:
    instances = 20 if level == "full" else 5
    samples = 1000 if level == "full" else 200
    violations = 0
    for i in range(instances):
        n = 10 + i % 3
        num = (2, 3, 5)[i % 3]
        h = cons.gen_random_3hg(n, num, 10, subseed(4000, i))
        d = h.density().density_fraction
        dev = weak_deviation(h, d, mode="exact").max_deviation
        bound = 7 * dev
        rng = random.Random(subseed(4001, i))
        for _ in range(samples):
            x, y, z = sample_set_triple(rng, n, disjoint=True)
            e = h.count_ordered_triples(x, y, z)
            gap = abs(Fraction(e) - d * (x.bit_count() * y.bit_count() * z.bit_count()))
            if gap > bound:
                violations += 1
    return violations == 0, "%d violations over %d instances x %d samples" % (
        violations, instances, samples)


def check_pattern_rule_audit(level: str) -> tuple[bool, str]:
    problems = []
    for k in range(4, 9):
        got = len(cons.sk_free_patterns(k))
        want = (k - 1) * (k - 2) + (k - 1) * (k - 3) ** 2
        if got != want:
            problems.append("k=%d table has %d patterns, want %d" % (k, got, want))
    expected_k4 = {(a, b, a) for a in range(3) for b in range(3) if a != b} | \
        {(0, 1, 2), (2, 0, 1), (1, 2, 0)}
    if cons.sk_free_patterns(4) != expected_k4:
        problems.append("k=4 table differs from the nine-pattern reference")
    return not problems, "; ".join(problems) or \
        "pattern counts match (k-1)(k-2)+(k-1)(k-3)^2 for k=4..8; k=4 is the 9-of-27 table"


def check_link_colouring(level: str) -> tuple[bool, str]:
    n = 50 if level == "full" else 25
    problems = []
    for k in (4, 5):
        h = cons.gen_sk_free(n, k, 11)
        for apex in range(n):
            rep = det.link_colouring_witness(h, apex)
            covered = sorted(v for cls in rep.classes for v in cls)
            if covered != [v for v in range(n) if v != apex]:
                problems.append("k=%d apex %d classes miss the partition" % (k, apex))
            if not rep.independent:
                problems.append("k=%d apex %d dependent class" % (k, apex))
    return not problems, "; ".join(problems) or \
        "all apex classes partition and are independent (k=4,5, n=%d)" % n


def check_multipartite_tightness(level: str) -> tuple[bool, str]:
    problems = []
    g = half_split(5, 12)
    if count_triangles_mp(g) != 0:
        problems.append("half_split(5,12) has a triangle")
    prof = mean_square_profile(g)
    if any(r != Fraction(1, 4) for r in prof.ratios.values()):
        problems.append("half_split ratio differs from exactly 1/4")
    best = naive_best_triangle_free_ratio(3, 2)
    if best != mean_square_profile(half_split(3, 2)).min_ratio():
        problems.append("best triangle-free ratio on 3 parts of 2 is %s, not the "
                        "half-split's" % best)
    shapes = [(3, 12), (4, 8), (5, 12), (8, 64)] if level == "full" else [(3, 8), (5, 4)]
    for m, s in shapes:
        res = explore_extremal(m, s, seed=7)
        if res.graph.graph.rows != half_split(m, s).graph.rows or res.accepted_moves:
            problems.append("explorer(%d,%d) left the half-split" % (m, s))
    res = explore_extremal(2, 4, restarts=4, seed=7, moves=200)
    if res.min_ratio != 1:
        problems.append("explorer(2,4) stopped at ratio %s, not 1" % res.min_ratio)
    return not problems, "; ".join(problems) or \
        "half_split exact 1/4, triangle-free and best possible on 3 parts of 2; " \
        "explorer ends there for m >= 3 and at ratio 1 for m = 2"


def check_cauchy_schwarz_step(level: str) -> tuple[bool, str]:
    blocks = 200 if level == "full" else 50
    eps = Fraction(1, 20)
    low_density = 0
    violations = 0
    for i in range(blocks):
        blk = gen_random_aux_block((10, 10, 10), 2, 5, subseed(5000, i))
        if blk.density() < Fraction(3, 10):
            low_density += 1
            continue
        rep = project_auxiliary(blk, eps)
        if not (rep.left_holds or rep.right_holds):
            violations += 1
    if low_density > blocks // 10:
        return False, "too many blocks under density 0.30 (%d)" % low_density
    return violations == 0, "%d violations over %d blocks (density >= 0.30: %d)" % (
        violations, blocks, blocks - low_density)


def _linear_patterns_up_to_six():
    patterns = [Hypergraph3.from_edges(3, [(0, 1, 2)]),
                Hypergraph3.from_edges(5, [(0, 1, 2), (0, 3, 4)]),
                Hypergraph3.from_edges(6, [(0, 1, 2), (3, 4, 5)])]
    for t in det.three_edge_isomorphism_types():
        if t.n <= 6 and det.is_linear(t):
            patterns.append(t)
    return patterns


def check_vanishing_and_universality(level: str) -> tuple[bool, str]:
    host_n = 300 if level == "full" else 150
    problems = []
    single = Hypergraph3.from_edges(3, [(0, 1, 2)])
    if det.check_vanishing_condition(single) is None:
        problems.append("single edge rejected")
    for idx, pat in enumerate(_linear_patterns_up_to_six()):
        w = det.check_vanishing_condition(pat)
        if w is None:
            problems.append("linear pattern %d rejected" % idx)
        elif not det.verify_vanishing(pat, w):
            problems.append("linear pattern %d witness fails re-check" % idx)
    k4m = Hypergraph3.from_edges(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    if det.check_vanishing_condition(k4m) is not None:
        problems.append("apex pattern accepted by vanishing checker")
    host = cons.gen_rainbow_1_27(host_n, 23)
    accepted = embedded = 0
    for idx, pat in enumerate(det.three_edge_isomorphism_types()):
        if pat.n > 6:
            continue
        if det.check_vanishing_condition(pat) is None:
            continue
        accepted += 1
        if det.embed_small(pat, host) is None:
            problems.append("accepted 3-edge pattern %d fails to embed" % idx)
        else:
            embedded += 1
    return not problems, "; ".join(problems) or \
        "single edge + %d linear patterns accepted; apex pattern rejected; " \
        "%d/%d accepted 3-edge types embed into the 1/27 host" % (
            len(_linear_patterns_up_to_six()), embedded, accepted)


def check_triangle_counting_bound(level: str) -> tuple[bool, str]:
    if level == "full":
        part, per_p, enum_side = 40, 10, 16
    else:
        part, per_p, enum_side = 24, 3, 12
    problems = []
    for idx_p, (num, den) in enumerate(((1, 2), (1, 4))):
        for i in range(per_p):
            g = gen_random_multipartite([part] * 3, num, den, subseed(6000, idx_p, i))
            rep = triangle_bound_check(g, Fraction(num, den), enum_side=enum_side)
            if not rep.holds:
                problems.append("bound fails at p=%d/%d instance %d (count %d > %s)"
                                % (num, den, i, rep.count, rep.bound))
    return not problems, "; ".join(problems) or \
        "count <= d^3 + 3*delta bound on %d instances (parts of %d)" % (2 * per_p, part)


def check_positive_detection(level: str) -> tuple[bool, str]:
    trials = 100 if level == "full" else 30
    need = 95 if level == "full" else 27
    hits = 0
    for s in range(trials):
        h = cons.gen_random_3hg(40, 3, 10, subseed(7000, s))
        if det.find_k4_minus(h, ordered=True) is not None:
            hits += 1
    return hits >= need, "ordered witness on %d/%d seeds (need >= %d)" % (
        hits, trials, need)


CRITERIA: list[tuple[str, str, Callable[[str], tuple[bool, str]]]] = [
    ("C1", "construction densities", check_densities),
    ("C2", "forbidden-pattern freeness", check_freeness),
    ("C3", "oracle equivalence", check_oracle_equivalence),
    ("C4", "sieve bound on set triples", check_sieve_bound),
    ("C5", "pattern-rule audit", check_pattern_rule_audit),
    ("C6", "link colouring witnesses", check_link_colouring),
    ("C7", "multipartite tightness", check_multipartite_tightness),
    ("C8", "Cauchy-Schwarz projection step", check_cauchy_schwarz_step),
    ("C9", "vanishing condition and universality", check_vanishing_and_universality),
    ("C10", "triangle counting bound", check_triangle_counting_bound),
    ("C11", "positive ordered detection probe", check_positive_detection),
]


def run_suite(level: str = "quick") -> list[CheckResult]:
    """Run every criterion at the given level, printing one line per result."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = []
    for check_id, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(level)
        except Exception as exc:
            passed, detail = False, "crashed: %s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
        results.append(CheckResult(check_id, name, passed, detail, seconds))
        print("%-4s %-38s %s  (%.1fs)  %s"
              % (check_id, name, "PASS" if passed else "FAIL", seconds, detail))
    return results
