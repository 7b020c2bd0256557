"""Acceptance suite: every exit criterion, one test each, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The exhaustive sweeps over all labeled graphs on 4..6 vertices
are computed once and shared.
"""

import random
import time

import pytest

from cliquerep import (
    all_clique_partitions,
    canonical_form,
    check_rs_bound,
    complete_bipartite,
    complete_graph,
    distinctness,
    enumerate_labeled_graphs,
    erdos_partition,
    exhaustive_bound_check,
    greedy_decomposition,
    augment_to_distinct,
    induced_subgraph,
    min_clique_partition,
    min_distinct_representation,
    partition_from_representation,
    quarter_square,
    representation_from_partition,
    validate_partition,
)
from helpers import as_partition, random_graph, reference_lemma6, with_extra_trivial

FIXED_SEEDS = tuple(range(1, 11))
SWEEP_NS = (4, 5, 6)


def _criterion(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweeps():
    start = time.time()
    reports = {n: exhaustive_bound_check(n, [None, *FIXED_SEEDS]) for n in SWEEP_NS}
    return reports, time.time() - start


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = random.Random(20260808)
    corpus = []
    for i in range(1000):
        g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.1, 0.9))
        seed = None if i % 4 == 0 else rng.getrandbits(32)
        corpus.append((i, g, seed))
    return corpus


def test_criterion_1_greedy_clique_bound(sweeps):
    reports, elapsed = sweeps
    bad = 0
    for n in SWEEP_NS:
        report = reports[n]
        assert report.graphs_checked == 1 << (n * (n - 1) // 2)
        assert len(report.strategies) == 11
        assert report.bound == {4: 4, 5: 6, 6: 9}[n]
        bad += sum(1 for v in report.violations if v.check.startswith("greedy_cliques"))
        assert report.max_cliques_seen <= report.bound
    _criterion(
        1, bad == 0 and elapsed < 300,
        f"greedy clique counts <= floor(n^2/4) over all graphs, n in {SWEEP_NS}, "
        f"11 strategies, 0 violations, sweeps took {elapsed:.1f}s",
    )


def test_criterion_2_augmented_element_bound(sweeps):
    reports, _ = sweeps
    bad = 0
    for n in SWEEP_NS:
        report = reports[n]
        bad += sum(1 for v in report.violations if v.check == "augmented_elements")
        assert report.max_elements_seen <= report.bound
    _criterion(
        2, bad == 0,
        f"augmented representation ground sizes <= floor(n^2/4), n in {SWEEP_NS}, "
        "0 violations",
    )


def test_criterion_3_recursive_partition(sweeps):
    reports, _ = sweeps
    bad = sum(
        1
        for n in SWEEP_NS
        for v in reports[n].violations
        if v.check.startswith("erdos")
    )
    rng = random.Random(31337)
    checked = 0
    for i in range(200):
        n = rng.randint(10, 60)
        p_edge = (0.2, 0.5, 0.8)[i % 3]
        g = random_graph(rng, n, p_edge)
        part = erdos_partition(g)
        ok = (
            validate_partition(g, part) == []
            and all(len(c) <= 3 for c in part.cliques)
            and len(part.cliques) <= quarter_square(n)
            and distinctness(representation_from_partition(part)).is_family
        )
        if not ok:
            bad += 1
        checked += 1
    _criterion(
        3, bad == 0,
        f"recursive partition valid, cliques <= 3 vertices, count <= floor(n^2/4), "
        f"distinct incidence sets: exhaustive n in {SWEEP_NS} plus {checked} "
        "random graphs with n in [10,60]",
    )


def test_criterion_4_extremal_equalities():
    cases = [
        ("K_{2,2}", complete_bipartite(2, 2), 4),
        ("K_{3,3}", complete_bipartite(3, 3), 9),
        ("K_{2,3}", complete_bipartite(2, 3), 6),
        ("K_{3,4}", complete_bipartite(3, 4), 12),
    ]
    results = []
    ok = True
    for name, g, expected in cases:
        value, witness = min_clique_partition(g)
        if not (value == expected == quarter_square(g.n)
                and validate_partition(g, witness) == []):
            ok = False
        results.append(f"cp({name})={value}")
    _criterion(4, ok, ", ".join(results) + ", each equal to floor(n^2/4)")


def test_criterion_5_complete_graphs():
    ok = True
    for n in (4, 5, 6):
        k = complete_graph(n)
        d = greedy_decomposition(k)
        augmented = augment_to_distinct(representation_from_partition(d))
        omega, _ = min_distinct_representation(k)
        if not (len(d.sequence) == 1 and augmented.ground_size == n and omega == n):
            ok = False
    _criterion(
        5, ok,
        "complete graphs n in (4,5,6): greedy is one clique, augmented "
        "representation and the exact minimum both use exactly n elements",
    )


def test_criterion_6_bijection_round_trips():
    count = 0
    ok = True
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            for p in all_clique_partitions(g):
                rep = representation_from_partition(p)
                if rep.ground_size != len(p.cliques):
                    ok = False
                if partition_from_representation(rep) != p:
                    ok = False
                count += 1
    _criterion(
        6, ok,
        f"partition -> representation -> partition is the identity and "
        f"ground size equals clique count for all {count} partitions of all "
        "graphs with n <= 5",
    )


def test_criterion_7_duplicate_pair_clique_maximality(fuzz_corpus):
    violations = 0
    exhaustive = 0
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            for p in with_extra_trivial(g, all_clique_partitions(g)):
                violations += len(reference_lemma6(g, p.cliques))
                exhaustive += 1
    for i, g, seed in fuzz_corpus:
        if i % 2 == 0:
            p = as_partition(greedy_decomposition(g, seed))
        else:
            p = erdos_partition(g)
        violations += len(reference_lemma6(g, p.cliques))
    _criterion(
        7, violations == 0,
        f"duplicate-pair shared cliques are maximal and exclusive: "
        f"{exhaustive} exhaustive partitions (n <= 4) plus "
        f"{len(fuzz_corpus)} fuzzed pairs (n in [5,9]), 0 violations",
    )


def test_criterion_8_two_clique_neighborhood_bound(fuzz_corpus):
    violations = 0
    for _, g, seed in fuzz_corpus:
        d = greedy_decomposition(g, seed)
        violations += len(check_rs_bound(g, d))
    _criterion(
        8, violations == 0,
        f"2-clique neighborhood members <= n-2 over the same "
        f"{len(fuzz_corpus)}-graph fuzz corpus, 0 violations",
    )


def test_criterion_9_monotonicity():
    cp_cache: dict = {}
    omega_cache: dict = {}

    def cp(g):
        if g not in cp_cache:
            cp_cache[g] = min_clique_partition(g)[0]
        return cp_cache[g]

    def omega(g):
        if g not in omega_cache:
            omega_cache[g] = min_distinct_representation(g)[0]
        return omega_cache[g]

    checked = 0
    ok = True
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            cp_g, omega_g = cp(g), omega(g)
            for mask in range(1 << n):
                sub, _ = induced_subgraph(g, [v for v in range(n) if mask >> v & 1])
                if cp(sub) > cp_g or omega(sub) > omega_g:
                    ok = False
                checked += 1
    _criterion(
        9, ok,
        f"cp and omega never exceed their host's value on any induced "
        f"subgraph: {checked} (graph, subset) pairs with n <= 5",
    )


def test_criterion_10_isomorphism_class_count():
    classes = {canonical_form(g) for g in enumerate_labeled_graphs(4)}
    _criterion(10, len(classes) == 11,
               f"enumeration of n=4 yields {len(classes)} isomorphism classes")


def test_criterion_11_quarter_square_identity():
    ok = all(quarter_square(n) == quarter_square(n - 1) + n // 2
             for n in range(1, 10**6 + 1))
    _criterion(11, ok,
               "floor(n^2/4) == floor((n-1)^2/4) + floor(n/2) for 1 <= n <= 10^6")
