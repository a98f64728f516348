"""Fragment canonicalization and isomorphic thread-partition tests."""

from __future__ import annotations

import dataclasses
import pickle
import random

import numpy as np
import pytest

import neurocost as nc
import neurocost.cli as cli
from neurocost import threads
from neurocost.threads import Fragment

from conftest import bench_cases, dag
from oracles import canonical_label, extract_fragment


def make_chain(n, prefix="n"):
    return nc.validate_graph(dag(
        [(f"{prefix}{i}", "relay", () if i == 0 else (f"{prefix}{i - 1}",)) for i in range(n)],
        inputs=(f"{prefix}0",), outputs=(f"{prefix}{n - 1}",)))


def permute_ids(vg, seed):
    """Rename every node with a shuffled id map; structure is unchanged."""
    rng = random.Random(seed)
    ids = list(vg.graph.ids)
    mapping = dict(zip(ids, rng.sample(ids, len(ids))))
    nodes = [(mapping[nid], kind, tuple(mapping[p] for p in refs))
             for nid, kind, refs in zip(ids, vg.graph.op_kinds, vg.graph.inputs)]
    return nc.validate_graph(dag(
        sorted(nodes),
        inputs=tuple(mapping[i] for i in vg.graph.declared_inputs),
        outputs=tuple(mapping[o] for o in vg.graph.declared_outputs),
    ))


class TestCanonicalLabels:
    def test_exact_label_invariant_under_renaming(self):
        vg = make_chain(6)
        pg = permute_ids(vg, 11)
        fa = extract_fragment(vg, vg.graph.ids)
        fb = extract_fragment(pg, pg.graph.ids)
        assert canonical_label(fa) == canonical_label(fb)
        assert nc.isomorphic(fa, fb)

    def test_label_prefixes_by_size(self):
        small = extract_fragment(make_chain(6), tuple(f"n{i}" for i in range(6)))
        big = extract_fragment(make_chain(12), tuple(f"n{i}" for i in range(12)))
        assert canonical_label(small).startswith("x")
        with pytest.raises(nc.FragmentTooLarge, match="12 nodes, exact labels stop at 8"):
            canonical_label(big)

    def test_chain_and_fan_get_different_labels(self):
        chain3 = nc.validate_graph(dag(
            [("a", "relay"), ("b", "relay", ("a",)), ("c", "relay", ("b",))],
            inputs=("a",), outputs=("c",)))
        fan3 = nc.validate_graph(dag(
            [("a", "relay"), ("b", "relay", ("a",)), ("c", "relay", ("a",))],
            inputs=("a",), outputs=("b", "c")))
        fc = extract_fragment(chain3, ("a", "b", "c"))
        ff = extract_fragment(fan3, ("a", "b", "c"))
        assert canonical_label(fc) != canonical_label(ff)
        assert not nc.isomorphic(fc, ff)

    def test_embedding_arity_separates_fragments(self):
        # (n0,n1) has no external producer; (n1,n2) receives one edge from
        # outside the fragment, so equal shapes still land in two families
        vg = make_chain(4)
        f01 = extract_fragment(vg, ("n0", "n1"))
        f12 = extract_fragment(vg, ("n1", "n2"))
        assert not nc.isomorphic(f01, f12)
        assert canonical_label(f01) != canonical_label(f12)

    def test_interior_slices_match(self):
        vg = make_chain(6)
        g12 = extract_fragment(vg, ("n1", "n2"))
        g34 = extract_fragment(vg, ("n3", "n4"))
        assert nc.isomorphic(g12, g34)
        assert canonical_label(g12) == canonical_label(g34)

    def test_extract_fragment_rejects_repeated_and_unknown_ids(self, footnote):
        with pytest.raises(ValueError, match="node 'a' is listed twice"):
            extract_fragment(footnote, ["a", "c", "a"])
        with pytest.raises(ValueError, match="node 'ghost' is not in the graph"):
            extract_fragment(footnote, ["c", "ghost", "c"])

    def test_extract_fragment_of_no_ids_is_empty(self, footnote):
        assert extract_fragment(footnote, []) == Fragment((), frozenset(), ())

    @pytest.mark.parametrize("seed", range(4))
    def test_extract_fragment_matches_id_reference(self, seed):
        """Annotations count an input or a consumer once per reference;
        edges are the distinct internal pairs."""
        rng = random.Random(seed)
        vg = random_multigraph(rng)
        for _ in range(20):
            ids = rng.sample(vg.graph.ids, rng.randrange(1, 8))
            frag = extract_fragment(vg, ids)
            assert (frag.nodes, frag.edges, frag.node_ids) == id_reference_fragment(vg, ids)

    @pytest.mark.parametrize("seed", range(4))
    def test_overlapping_and_wide_rows_match_id_reference(self, seed):
        """One bulk call builds rows that share positions, as the oracle's
        candidates do, and rows wider than one 8-column comparison pass;
        each row is the fragment of its own ids."""
        rng = random.Random(seed)
        vg = random_multigraph(rng)
        for k in (1, 3, 8, 9, 14):
            rows = [rng.sample(range(len(vg)), k) for _ in range(12)]
            frags, shape_of = threads._fragments(vg, np.array(rows, np.intp))
            for row, frag in zip(rows, frags):
                ids = [vg.graph.ids[i] for i in row]
                assert (frag.nodes, frag.edges, frag.node_ids) == id_reference_fragment(vg, ids)
            # One shape index per distinct (nodes, edges), as _group_by_label needs.
            shapes = {(f.nodes, f.edges): shape for f, shape in zip(frags, shape_of)}
            assert sorted(shapes.values()) == sorted(set(shape_of))

    def test_exact_matcher_size_cap(self):
        vg = make_chain(20)
        f9a = extract_fragment(vg, tuple(f"n{i}" for i in range(1, 10)))
        f9b = extract_fragment(vg, tuple(f"n{i}" for i in range(10, 19)))
        with pytest.raises(nc.FragmentTooLarge):
            nc.isomorphic(f9a, f9b)

    def test_label_hard_cap(self):
        vg = make_chain(70)
        f65 = extract_fragment(vg, tuple(f"n{i}" for i in range(1, 66)))
        with pytest.raises(nc.FragmentTooLarge):
            canonical_label(f65)

    def test_caps_exported(self):
        assert nc.EXACT_LIMIT == 8
        assert nc.ORACLE_CAP == 12


def random_multigraph(rng):
    """14 nodes of two kinds, each with up to 3 inputs, repeats allowed."""
    nodes = []
    for i in range(14):
        refs = tuple(f"v{rng.randrange(i)}" for _ in range(rng.randrange(4))) if i else ()
        nodes.append((f"v{i}", rng.choice("ab"), refs))
    return nc.validate_graph(dag(nodes))


def id_reference_fragment(vg, ids):
    """(nodes, edges, node_ids) of the fragment on `ids`, from the id columns."""
    graph, members = vg.graph, set(ids)
    want_nodes, want_edges = [], set()
    for nid in ids:
        kind, inputs = graph.op_kinds[vg.index[nid]], graph.inputs[vg.index[nid]]
        consumers = [m for m, refs in zip(graph.ids, graph.inputs) for ref in refs if ref == nid]
        want_nodes.append((kind, sum(r not in members for r in inputs),
                           sum(c not in members for c in consumers)))
        want_edges |= {(ids.index(r), ids.index(nid)) for r in inputs if r in members}
    return tuple(want_nodes), frozenset(want_edges), tuple(ids)


def corpus_entry(name):
    entry = {e.name: e for e in nc.mini_corpus()}[name]
    return nc.validate_graph(entry.graph), entry.granularity


class TestPartition:
    def test_dense_rows_partition(self):
        vg, gran = corpus_entry("dense_rows_4x3")
        pr = nc.partition_isomorphic(vg, gran)
        assert pr.p_threads == 4
        assert pr.residual == frozenset()
        assert pr.granularity == gran

    def test_granularity_one_path(self):
        vg, _ = corpus_entry("path12_singletons")
        pr = nc.partition_isomorphic(vg, 1)
        # interior singletons share an embedding; the two endpoints differ
        assert pr.p_threads == 10

    def test_granularity_validation(self):
        vg = make_chain(4)
        with pytest.raises(ValueError):
            nc.partition_isomorphic(vg, 0)

    @pytest.mark.parametrize("g", [9, 10, 64])
    def test_granularity_above_the_exact_limit(self, g):
        """Both partitions refuse before tiling, even on a graph too small
        to fill one fragment."""
        for vg in (make_chain(4), make_chain(12)):
            for partition in (nc.partition_isomorphic, nc.brute_force_partition):
                with pytest.raises(nc.FragmentTooLarge,
                                   match=f"^granularity {g} exceeds the exact-label limit of 8$"):
                    partition(vg, g)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2"])
    def test_granularity_must_be_an_int_not_bool(self, bad):
        vg = make_chain(4)
        for partition in (nc.partition_isomorphic, nc.brute_force_partition):
            with pytest.raises(ValueError, match="granularity must be an integer >= 1"):
                partition(vg, bad)

    def test_assigned_plus_residual_cover_graph(self):
        for entry in nc.mini_corpus():
            vg = nc.validate_graph(entry.graph)
            pr = nc.partition_isomorphic(vg, entry.granularity)
            assigned: list[str] = list(pr.residual)
            for _label, frags in pr.families:
                for frag in frags:
                    assigned.extend(frag.node_ids)
            assert sorted(assigned) == sorted(entry.graph.ids)

    def test_family_ordering(self):
        vg, gran = corpus_entry("path12_singletons")
        pr = nc.partition_isomorphic(vg, gran)
        sizes = [len(frags) for _label, frags in pr.families]
        assert sizes == sorted(sizes, reverse=True)
        assert pr.p_threads == sizes[0]


class TestOracle:
    def test_greedy_never_beats_oracle(self):
        for entry in nc.mini_corpus():
            vg = nc.validate_graph(entry.graph)
            greedy = nc.partition_isomorphic(vg, entry.granularity)
            exact = nc.brute_force_partition(vg, entry.granularity)
            assert greedy.p_threads <= exact.p_threads, entry.name

    def test_greedy_exact_on_regular_families(self):
        for entry in nc.mini_corpus():
            if entry.category not in ("homogeneous", "chain"):
                continue
            vg = nc.validate_graph(entry.graph)
            greedy = nc.partition_isomorphic(vg, entry.granularity)
            exact = nc.brute_force_partition(vg, entry.granularity)
            assert greedy.p_threads == exact.p_threads, entry.name

    @pytest.mark.parametrize("name, greedy_p, oracle_p", [
        ("offset_chain12_f_g3", 2, 3),
        ("offset_chain12_fg_g2", 4, 5),
        ("offset_chain10_f_g2", 3, 4),
        ("mixed_rows_2x2", 2, 2),
        ("trap_star9", 1, 1),
    ])
    def test_adversarial_values(self, name, greedy_p, oracle_p):
        vg, gran = corpus_entry(name)
        assert nc.partition_isomorphic(vg, gran).p_threads == greedy_p
        assert nc.brute_force_partition(vg, gran).p_threads == oracle_p
        assert greedy_p / oracle_p >= 0.5

    def test_oracle_size_cap(self):
        with pytest.raises(nc.GraphTooLargeForOracle):
            nc.brute_force_partition(make_chain(13), 1)



class TestEfficiency:
    def test_dense_rows_efficiency(self):
        entry = {e.name: e for e in nc.mini_corpus()}["dense_rows_4x3"]
        pr = nc.partition_isomorphic(nc.validate_graph(entry.graph), entry.granularity)
        assert nc.thread_efficiency(pr, 2) == 1.0
        assert nc.thread_efficiency(pr, 4) == 1.0
        assert nc.thread_efficiency(pr, 8) == 0.5

    def test_efficiency_validation(self):
        entry = nc.mini_corpus()[0]
        pr = nc.partition_isomorphic(nc.validate_graph(entry.graph), entry.granularity)
        with pytest.raises(ValueError):
            nc.thread_efficiency(pr, 0)
        for bad in (True, 2.0):
            with pytest.raises(ValueError, match="p must be an integer >= 1"):
                nc.thread_efficiency(pr, bad)


def stencil():
    """The stencil of the benchmark's stencil_threads workload."""
    cases = bench_cases()
    return nc.validate_graph(cases.stencil_generate(0, False).stencil)


def shapes(pr):
    return {(frag.nodes, frag.edges) for _label, members in pr.families for frag in members}


@pytest.fixture
def signature_calls(monkeypatch):
    """Counts calls to the exact signature search."""
    calls = []
    real = threads._exact_signature

    def counted(frag):
        calls.append(frag)
        return real(frag)

    monkeypatch.setattr(threads, "_exact_signature", counted)
    return calls


class TestShapeMemo:
    """Labels depend only on a fragment's (nodes, edges), so each distinct
    shape is labelled once per partition call."""

    @pytest.mark.parametrize("g, distinct", [(3, 3), (4, 5)])
    def test_stencil_labels_each_shape_once(self, signature_calls, g, distinct):
        pr = nc.partition_isomorphic(stencil(), g)
        assert len(signature_calls) == distinct == len(shapes(pr))
        assert sum(len(members) for _label, members in pr.families) > 100 * distinct

    def test_chain_labels_each_shape_once(self, signature_calls):
        pr = nc.partition_isomorphic(make_chain(800), 8)
        assert len(signature_calls) == len(shapes(pr)) == 3
        assert {(f.nodes, f.edges) for f in signature_calls} == shapes(pr)

    def test_8000_node_relay_chain_labels_three_shapes(self, signature_calls):
        # Three shapes (head, interior, tail), each with a class of six
        # non-twin relays: 720 layouts a label, so a lost memo is seconds.
        pr = nc.partition_isomorphic(make_chain(8000), 8)
        assert len(signature_calls) == len(pr.families) == 3
        assert pr.p_threads == 998

    def test_oracle_labels_each_shape_once(self, signature_calls):
        vg, gran = corpus_entry("dense_rows_4x3")
        nc.brute_force_partition(vg, gran)
        subsets = threads._connected_subsets(vg, gran)
        distinct = {(f.nodes, f.edges) for f in (extract_fragment(vg, s) for s in subsets)}
        assert len(signature_calls) == len(distinct) < len(subsets)

    @pytest.mark.parametrize("case", ["stencil3", "stencil4", "chain800", "corpus"])
    def test_family_labels_are_canonical_labels(self, case):
        if case.startswith("stencil"):
            runs = [(stencil(), int(case[-1]))]
        elif case == "chain800":
            runs = [(make_chain(800), 8)]
        else:
            runs = [(nc.validate_graph(e.graph), e.granularity) for e in nc.mini_corpus()]
        for vg, g in runs:
            for label, members in nc.partition_isomorphic(vg, g).families:
                assert all(canonical_label(frag) == label for frag in members)

    def test_colliding_digests_still_raise(self, monkeypatch):
        monkeypatch.setattr(threads, "_exact_label", lambda signature: "x-collide")
        with pytest.raises(AssertionError, match="non-isomorphic members"):
            nc.partition_isomorphic(stencil(), 3)


def reference_fragment(vg, adjacency, members):
    """The per-fragment builder the bulk builder replaced: induce a
    fragment on distinct host-graph positions, in the given order."""
    pred_start, pred, succ_start, succ = adjacency
    local = {pos: i for i, pos in enumerate(members)}
    annotated = []
    edges = set()
    for i, pos in enumerate(members):
        preds = pred[pred_start[pos]:pred_start[pos + 1]]
        inside = [local[ref] for ref in preds if ref in local]
        outside = [s for s in succ[succ_start[pos]:succ_start[pos + 1]] if s not in local]
        annotated.append((vg.graph.op_kinds[pos], len(preds) - len(inside), len(outside)))
        for j in inside:
            edges.add((j, i))
    return threads.Fragment(tuple(annotated), frozenset(edges),
                            tuple(vg.graph.ids[pos] for pos in members))


def reference_partition(vg, granularity):
    """The set-based greedy tiler that `partition_isomorphic` replaced:
    each growth step gathers every member's untaken neighbours into a set
    and adds the one of smallest rank."""
    adjacency = tuple(a.tolist() for a in (vg.pred_start, vg.pred_pos,
                                           vg.succ_start, vg.succ_pos))
    pred_start, pred, succ_start, succ = adjacency
    order = sorted(range(len(vg)), key=vg.graph.ids.__getitem__)
    order.sort(key=vg.level.tolist().__getitem__)
    rank = [0] * len(vg)
    for i, pos in enumerate(order):
        rank[pos] = i
    assigned, fragments, residual = set(), [], set()
    for seed in order:
        if seed in assigned:
            continue
        members, member_set = [seed], {seed}
        while len(members) < granularity:
            candidates = set()
            for pos in members:
                for nb in (pred[pred_start[pos]:pred_start[pos + 1]]
                           + succ[succ_start[pos]:succ_start[pos + 1]]):
                    if nb not in assigned and nb not in member_set:
                        candidates.add(nb)
            if not candidates:
                break
            pick = min(candidates, key=rank.__getitem__)
            members.append(pick)
            member_set.add(pick)
        assigned |= member_set
        if len(members) == granularity:
            fragments.append(reference_fragment(vg, adjacency,
                                                sorted(members, key=rank.__getitem__)))
        else:
            residual |= member_set
    shapes: dict = {}  # shape indices as the bulk builder gives them: equal for equal shapes
    grouped = threads._group_by_label(
        fragments, [shapes.setdefault((f.nodes, f.edges), len(shapes)) for f in fragments])
    families = tuple(sorted(((label, tuple(members)) for label, members in grouped.items()),
                            key=lambda item: (-len(item[1]), item[0])))
    return nc.PartitionResult(
        families=families,
        residual=frozenset(vg.graph.ids[pos] for pos in residual),
        p_threads=max((len(members) for _label, members in families), default=1),
        granularity=granularity,
    )


def with_repeats(graph, seed):
    """The graph with about a third of its input references listed twice."""
    rng = random.Random(seed)
    inputs = [tuple(ref for ref in refs for _ in range(1 + (rng.random() < 0.3)))
              for refs in graph.inputs]
    return nc.ComputeGraph.from_columns(graph.ids, graph.op_kinds, inputs,
                                        graph.declared_inputs, graph.declared_outputs)


def star(n, inward):
    """A hub with n inputs (inward) or n consumers."""
    leaves = [(f"leaf{i}", "leaf", () if inward else ("hub",)) for i in range(n)]
    hub = ("hub", "hub", tuple(leaf[0] for leaf in leaves) if inward else ())
    return dag([*leaves, hub] if inward else [hub, *leaves])


ONE_KIND, THREE_KINDS = ("op",), ("add", "mul", "sub")
RANDOM_DAGS = [(n, density, alphabet, seed)
               for seed, (n, density) in enumerate([(8, 0.3), (40, 0.1), (60, 0.3), (120, 0.05),
                                                    (200, 0.01), (300, 0.02)])
               for alphabet in (ONE_KIND, THREE_KINDS)]


def differential_graphs():
    graphs = {f"random_n{n}_d{d}_{len(a)}kinds_s{s}": nc.gen_random_dag(n, d, a, seed=s)
              for n, d, a, s in RANDOM_DAGS}
    graphs.update({f"repeats_{name}": with_repeats(graph, k)
                   for k, (name, graph) in enumerate(list(graphs.items())[::3])})
    graphs.update({"chain": make_chain(50).graph, "in_star": star(30, True),
                   "out_star": star(30, False)})
    graphs.update({f"corpus_{e.name}": e.graph for e in nc.mini_corpus()})
    inp = bench_cases().stencil_generate(0, False)
    graphs.update({"stencil_64x32": inp.stencil, "dense_32x6": inp.dense})
    return graphs


DIFFERENTIAL = differential_graphs()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_partition_matches_reference_tiler(name):
    """Rank-space tiling and the bulk build give the set-based tiler's
    result field for field, whole fragments included, at g = 1..8; g = 9
    is past the exact-label limit."""
    vg = nc.validate_graph(DIFFERENTIAL[name])
    for g in range(1, 9):
        assert nc.partition_isomorphic(vg, g) == reference_partition(vg, g), g
    with pytest.raises(nc.FragmentTooLarge):
        nc.partition_isomorphic(vg, 9)


def all_fragments(pr):
    return [frag for _label, members in pr.families for frag in members]


def assert_fragments_extract(vg, pr):
    for frag in all_fragments(pr):
        assert extract_fragment(vg, frag.node_ids) == frag


class TestBulkBuild:
    def test_repeated_input_counts_twice_in_arity_once_in_edges(self):
        vg = nc.validate_graph(dag([("a", "src"), ("b", "mid", ("a", "a")), ("c", "sink", ("b",))]))
        pr = nc.partition_isomorphic(vg, 2)
        [frag] = all_fragments(pr)
        assert frag == threads.Fragment((("src", 0, 0), ("mid", 0, 1)),
                                        frozenset({(0, 1)}), ("a", "b"))
        assert pr.residual == frozenset({"c"})
        assert extract_fragment(vg, ("b", "c")) == threads.Fragment(
            (("mid", 2, 0), ("sink", 0, 0)), frozenset({(0, 1)}), ("b", "c"))
        assert extract_fragment(vg, ("c", "a")) == threads.Fragment(
            (("sink", 1, 0), ("src", 0, 2)), frozenset(), ("c", "a"))
        assert_fragments_extract(vg, pr)
        [whole] = all_fragments(nc.partition_isomorphic(vg, 3))
        assert whole.nodes == (("src", 0, 0), ("mid", 0, 0), ("sink", 0, 0))
        assert whole.edges == frozenset({(0, 1), (1, 2)})

    def test_granularity_one(self):
        vg = nc.validate_graph(nc.gen_random_dag(40, 0.1, THREE_KINDS, seed=3))
        pr = nc.partition_isomorphic(vg, 1)
        frags = all_fragments(pr)
        assert pr.residual == frozenset() and len(frags) == len(vg)
        fan_in, fan_out = np.diff(vg.pred_start), np.diff(vg.succ_start)
        for frag in frags:
            pos = vg.index[frag.node_ids[0]]
            assert frag.nodes == ((vg.graph.op_kinds[pos], fan_in[pos], fan_out[pos]),)
            assert frag.edges == frozenset()
        assert_fragments_extract(vg, pr)

    def test_granularity_above_graph_size(self):
        vg = nc.validate_graph(nc.gen_random_dag(6, 0.3, ONE_KIND, seed=4))
        pr = nc.partition_isomorphic(vg, 7)
        assert pr.families == () and pr.p_threads == 1
        assert pr.residual == frozenset(vg.graph.ids)

    def test_hub_with_2000_consumers(self):
        vg = nc.validate_graph(star(2000, False))
        pr = nc.partition_isomorphic(vg, 3)
        [frag] = all_fragments(pr)
        assert frag == threads.Fragment((("hub", 0, 1998), ("leaf", 0, 0), ("leaf", 0, 0)),
                                        frozenset({(0, 1), (0, 2)}), ("hub", "leaf0", "leaf1"))
        assert len(pr.residual) == 1998
        assert_fragments_extract(vg, pr)
        singles = nc.partition_isomorphic(vg, 1)
        assert singles.p_threads == 2000
        assert_fragments_extract(vg, singles)

    def test_graph_without_edges(self):
        vg = nc.validate_graph(dag((f"v{i}", "op") for i in range(50)))
        singles = nc.partition_isomorphic(vg, 1)
        assert singles.p_threads == 50 and singles.residual == frozenset()
        assert {frag.nodes for frag in all_fragments(singles)} == {(("op", 0, 0),)}
        assert_fragments_extract(vg, singles)
        pairs = nc.partition_isomorphic(vg, 2)
        assert pairs.families == () and pairs.residual == frozenset(vg.graph.ids)

    @pytest.mark.parametrize("g", [3, 4])
    def test_stencil_fragments_extract(self, g):
        vg = stencil()
        assert_fragments_extract(vg, nc.partition_isomorphic(vg, g))

    @pytest.mark.parametrize("g", [3, 4])
    def test_fragments_of_one_shape_share_nodes_and_edges(self, g):
        by_shape = {}
        for frag in all_fragments(nc.partition_isomorphic(stencil(), g)):
            head = by_shape.setdefault((frag.nodes, frag.edges), frag)
            assert frag.nodes is head.nodes and frag.edges is head.edges
        for nodes, edges in by_shape:  # plain ints: labels hash the repr of a shape
            assert {type(x) for node in nodes for x in node[1:]} == {int}
            assert {type(x) for edge in edges for x in edge} <= {int}


class TestSlottedFragment:
    def test_bulk_built_fragment_is_a_frozen_slotted_dataclass(self):
        vg = stencil()
        frag = all_fragments(nc.partition_isomorphic(vg, 3))[0]
        assert not hasattr(frag, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            frag.nodes = ()
        twin = Fragment(frag.nodes, frag.edges, frag.node_ids)
        assert frag == twin and hash(frag) == hash(twin) and len(frag) == 3
        assert pickle.loads(pickle.dumps(frag)) == frag
        moved = dataclasses.replace(frag, node_ids=("x", "y", "z"))
        assert (moved.nodes, moved.edges, moved.node_ids) == (frag.nodes, frag.edges,
                                                              ("x", "y", "z"))


class TestTilingState:
    """`ValidatedGraph.tiling` is built once and shared by every call."""

    def test_reused_state_partitions_as_a_fresh_graph(self):
        vg = stencil()
        for g in (3, 4, 3, *range(1, 9)):
            assert nc.partition_isomorphic(vg, g) == nc.partition_isomorphic(stencil(), g), g
        assert vg.tiling is vg.tiling

    def test_cached_arrays_are_read_only(self):
        vg = stencil()
        nc.partition_isomorphic(vg, 4)
        for name, arr in vg.tiling._asdict().items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 1
        assert sorted(vg.tiling.order.tolist()) == list(range(len(vg)))
        codes = vg.tiling.kind_code.tolist()
        assert len(set(zip(codes, vg.graph.op_kinds))) == len(set(codes)) == len(
            set(vg.graph.op_kinds)) > 1

    @pytest.mark.parametrize("entry", nc.mini_corpus(), ids=lambda e: e.name)
    def test_oracle_and_extract_after_a_greedy_call(self, entry):
        g = entry.granularity
        fresh, used = nc.validate_graph(entry.graph), nc.validate_graph(entry.graph)
        nc.partition_isomorphic(used, g)
        assert nc.brute_force_partition(used, g) == nc.brute_force_partition(fresh, g)
        for subset in threads._connected_subsets(fresh, g):
            assert extract_fragment(used, subset) == extract_fragment(fresh, subset)


# Two 10-node DAGs of one op kind: sources 0-4, sinks 5-9, and (a, b) means
# sink b lists source a as an input. A 1-WL neighbourhood hash gives both
# one label, but they are not isomorphic.
TWIN_SOURCES = ((0, 5), (0, 7), (0, 9), (1, 6), (1, 7), (1, 8), (2, 6), (2, 8), (2, 9),
                (3, 5), (3, 7), (3, 9), (4, 5), (4, 6), (4, 8))
NO_TWINS = ((0, 5), (0, 6), (0, 8), (1, 5), (1, 7), (1, 9), (2, 6), (2, 7), (2, 8),
            (3, 6), (3, 7), (3, 9), (4, 5), (4, 8), (4, 9))


def wl_collision_graph():
    """TWIN_SOURCES as nodes p0..p9 and NO_TWINS as q0..q9, in one graph."""
    return dag((f"{name}{v}", "op", tuple(f"{name}{a}" for a, b in edges if b == v))
               for name, edges in (("p", TWIN_SOURCES), ("q", NO_TWINS)) for v in range(10))


class TestWLCollision:
    """Fragments above the exact-label limit are refused, not hashed into
    one family with a fragment they are not isomorphic to."""

    def test_the_two_components_are_not_isomorphic(self):
        def shared_sinks(edges):
            sinks = [{b for a, b in edges if a == source} for source in range(5)]
            return max(len(sinks[i] & sinks[j]) for i in range(5) for j in range(i))

        for edges in (TWIN_SOURCES, NO_TWINS):
            assert len(edges) == 15
            assert sorted({a for a, _b in edges}) == [0, 1, 2, 3, 4]
            assert all(sum(a == s for a, _b in edges) == 3 for s in range(5))
            assert all(sum(b == s for _a, b in edges) == 3 for s in range(5, 10))
        # Sources 0 and 3 feed the same three sinks in one, no two sources
        # share more than two sinks in the other.
        assert {b for a, b in TWIN_SOURCES if a == 0} == {b for a, b in TWIN_SOURCES if a == 3}
        assert (shared_sinks(TWIN_SOURCES), shared_sinks(NO_TWINS)) == (3, 2)

    def test_granularity_10_raises(self):
        with pytest.raises(nc.FragmentTooLarge):
            nc.partition_isomorphic(nc.validate_graph(wl_collision_graph()), 10)

    def test_cli_exits_2_with_empty_stdout(self, capsys, tmp_path):
        path = tmp_path / "collide.graph"
        path.write_text(nc.emit_graph(wl_collision_graph()))
        code = cli.main(["partition", str(path), "--granularity", "10"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: granularity 10 exceeds the exact-label limit of 8\n"

    @pytest.mark.parametrize("g", range(1, 9))
    def test_every_family_is_isomorphic(self, g):
        for label, members in nc.partition_isomorphic(
                nc.validate_graph(wl_collision_graph()), g).families:
            head = threads._exact_signature(members[0])
            assert all(threads._exact_signature(frag) == head for frag in members), label
