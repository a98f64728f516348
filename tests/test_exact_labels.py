"""Exact fragment labels: the twin-pruned search against a full search.

`reference_signature` below is written independently of the package: it
tries every ordering of every annotation class and keeps the smallest
sorted edge tuple. `_exact_signature` enumerates only the layouts in
which twins (same annotation, same internal in- and out-neighbours) keep
ascending index, and must reach the same minimum on every fragment.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import neurocost as nc
from neurocost.threads import Fragment, _exact_signature, _layouts
from conftest import dag
from oracles import canonical_label, extract_fragment

KINDS = ("mul", "add")


def reference_signature(nodes, edges):
    """Minimum over every class-respecting relabeling, no pruning."""
    index_by_annot: dict = {}
    for i, annot in enumerate(nodes):
        index_by_annot.setdefault(annot, []).append(i)
    annots = sorted(index_by_annot)
    best = None
    for perms in itertools.product(*(itertools.permutations(index_by_annot[a])
                                     for a in annots)):
        new_index = {}
        for orig in itertools.chain.from_iterable(perms):
            new_index[orig] = len(new_index)
        candidate = tuple(sorted((new_index[u], new_index[v]) for u, v in edges))
        if best is None or candidate < best:
            best = candidate
    return tuple(sorted(nodes)), best


def fragment(nodes, edges) -> Fragment:
    return Fragment(tuple(nodes), frozenset(edges), tuple(f"v{i}" for i in range(len(nodes))))


def random_dag_fragment(rng: random.Random) -> Fragment:
    n = rng.randint(1, 8)
    topo = rng.sample(range(n), n)
    density = rng.choice((0.0, 0.2, 0.4, 0.7))
    edges = {(topo[a], topo[b]) for a in range(n) for b in range(a + 1, n)
             if rng.random() < density}
    # One annotation for up to 6 nodes, else up to four.
    variety = 1 if n <= 6 and rng.random() < 0.3 else 2
    nodes = [(rng.choice(KINDS[:variety]), rng.randint(0, variety - 1), 0) for _ in range(n)]
    return fragment(nodes, edges)


def twin_star(rng: random.Random) -> Fragment:
    """A hub with identical in-leaves and out-leaves, indices shuffled."""
    n_in = rng.randint(0, 4)
    n_out = rng.randint(0, 6 - n_in)
    n = 1 + n_in + n_out
    pos = rng.sample(range(n), n)
    hub, ins, outs = pos[0], pos[1:1 + n_in], pos[1 + n_in:]
    nodes = [None] * n
    nodes[hub] = ("add", n_in, 0)
    for i in ins:
        nodes[i] = ("mul", 0, 0)
    for i in outs:
        nodes[i] = ("mul", 0, rng.randint(0, 1)) if rng.random() < 0.3 else ("mul", 0, 0)
    edges = {(i, hub) for i in ins} | {(hub, o) for o in outs}
    return fragment(nodes, edges)


def twins_inside_class(rng: random.Random) -> Fragment:
    """One annotation class split into several twin groups: leaves that
    feed one of two or three sinks, and some that feed two."""
    sinks = rng.randint(2, 3)
    leaves = rng.randint(3, 5)
    n = sinks + leaves
    pos = rng.sample(range(n), n)
    sink_ix, leaf_ix = pos[:sinks], pos[sinks:]
    nodes = [("mul", 0, 0)] * n
    edges = set()
    for leaf in leaf_ix:
        for s in rng.sample(sink_ix, rng.randint(1, 2)):
            edges.add((leaf, s))
    for s in sink_ix:
        nodes[s] = ("add", 0, 1)
    return fragment(nodes, edges)


def non_twin_class(rng: random.Random) -> Fragment:
    """A class of 4 to 6 (mostly 4 or 5) same-annotation members with pairwise different
    neighbourhoods: a chain, optionally with chords and one distinct node."""
    k = rng.choice((4, 4, 5, 5, 6))
    extra = rng.randint(0, 8 - k)
    n = k + extra
    pos = rng.sample(range(n), n)
    chain = pos[:k]
    edges = {(chain[i], chain[i + 1]) for i in range(k - 1)}
    edges |= {(chain[i], chain[j]) for i in range(k) for j in range(i + 2, k)
              if rng.random() < 0.2}
    nodes = [("f", 1, 1)] * n
    for i in pos[k:]:
        nodes[i] = ("g", 0, 1)
        edges.add((i, rng.choice(chain)))
    return fragment(nodes, edges)


GENERATORS = (random_dag_fragment, twin_star, twins_inside_class, non_twin_class)


def sample_fragments(count: int, seed: int):
    rng = random.Random(seed)
    for index in range(count):
        yield GENERATORS[index % len(GENERATORS)](rng)


def relabel(frag: Fragment, rng: random.Random) -> Fragment:
    perm = rng.sample(range(len(frag)), len(frag))
    nodes = [None] * len(frag)
    for i, annot in enumerate(frag.nodes):
        nodes[perm[i]] = annot
    return fragment(nodes, {(perm[u], perm[v]) for u, v in frag.edges})


def perturb(frag: Fragment, rng: random.Random) -> Fragment:
    """Drop one edge or change one annotation; may or may not stay isomorphic."""
    nodes, edges = list(frag.nodes), set(frag.edges)
    if edges and rng.random() < 0.5:
        edges.discard(rng.choice(sorted(edges)))
    else:
        i = rng.randrange(len(nodes))
        kind, ext_in, ext_out = nodes[i]
        nodes[i] = (kind, ext_in, ext_out + 1)
    return fragment(nodes, edges)


def test_pruned_search_matches_full_search():
    fragments = list(sample_fragments(2400, seed=5))
    assert {len(f) for f in fragments} == set(range(1, 9))
    pruned = 0
    for frag in fragments:
        assert _exact_signature(frag) == reference_signature(frag.nodes, frag.edges), frag
        full = math.prod(math.factorial(frag.nodes.count(a)) for a in set(frag.nodes))
        pruned += sum(1 for _ in _layouts(frag)) < full
    # Most of the sample must actually exercise the pruning.
    assert pruned > len(fragments) // 2


def test_isomorphic_verdicts_on_relabelings():
    rng = random.Random(17)
    differ = 0
    for frag in sample_fragments(400, seed=9):
        assert nc.isomorphic(frag, relabel(frag, rng))
        other = relabel(perturb(frag, rng), rng)
        expected = (reference_signature(frag.nodes, frag.edges)
                    == reference_signature(other.nodes, other.edges))
        assert nc.isomorphic(frag, other) == expected
        assert (canonical_label(frag) == canonical_label(other)) == expected
        differ += not expected
    assert differ > 200


def leaves_into_sum(leaves: int) -> Fragment:
    products = [f"m{i}" for i in range(leaves)]
    vg = nc.validate_graph(dag([(p, "mul") for p in products] + [("s", "add", tuple(products))],
                               inputs=products, outputs=("s",)))
    return extract_fragment(vg, products + ["s"])


def test_identical_leaves_visit_one_layout():
    # Seven interchangeable mul leaves: 7! = 5040 orderings, one layout.
    assert sum(1 for _ in _layouts(leaves_into_sum(7))) == 1


def test_layout_count_is_multinomial_in_twin_groups():
    # A 4-chain of one annotation has no twins: all 4! orderings remain.
    chain = fragment([("f", 0, 0)] * 4, {(0, 1), (1, 2), (2, 3)})
    assert sum(1 for _ in _layouts(chain)) == 24
    # Four leaves in two twin groups of two (two sinks): 4! / (2! 2!) = 6.
    split = fragment([("mul", 0, 0)] * 4 + [("add", 0, 0)] * 2,
                     {(0, 4), (1, 4), (2, 5), (3, 5)})
    assert sum(1 for _ in _layouts(split)) == 6 * 2


def test_layouts_are_distinct_and_multinomial_in_twin_groups():
    # Per annotation class c! / (t1! t2! ...), twins by internal neighbour sets.
    for frag in sample_fragments(2400, seed=5):
        twin_groups = Counter(
            (annot, frozenset(u for u, v in frag.edges if v == i),
             frozenset(v for u, v in frag.edges if u == i))
            for i, annot in enumerate(frag.nodes))
        expected = (math.prod(map(math.factorial, Counter(frag.nodes).values()))
                    // math.prod(map(math.factorial, twin_groups.values())))
        layouts = list(_layouts(frag))
        assert len(set(layouts)) == len(layouts) == expected, frag
        assert all(sorted(layout) == list(range(len(frag))) for layout in layouts)


def test_two_twin_groups_of_four_give_70_layouts():
    # a0..a3 -> b0..b3 complete, one annotation: one class, twin groups
    # (4, 4), 8! / (4! 4!) = 70 distinct layouts, each generated once.
    crown = fragment([("f", 0, 0)] * 8, {(a, b) for a in range(4) for b in range(4, 8)})
    layouts = list(_layouts(crown))
    assert len(layouts) == len(set(layouts)) == 70
    assert _exact_signature(crown) == reference_signature(crown.nodes, crown.edges)
