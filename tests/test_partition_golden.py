"""Golden partition digests: `partition_isomorphic` must keep its output.

Each case partitions one graph and hashes, with SHA-256, every family's
full label and its members' `node_ids` in order, the sorted residual and
`p_threads`. The digests in GOLDEN were recorded with the partitioner
that sorted fragment members by `order.index` and minimised exact labels
over every ordering of each annotation class; a faster partitioner must
reproduce them exactly, labels and family order included.

`PYTHONPATH=src python tests/test_partition_golden.py` prints the digests
of the partitioner on the path, one `name: digest` line per case.
"""

from __future__ import annotations

import hashlib

import pytest

import neurocost as nc

STENCIL_TEMPLATE = nc.ComputeGraph(
    nodes=(nc.OpNode("gather", "dot"),
           nc.OpNode("residual", "sub", ("gather",)),
           nc.OpNode("update", "add", ("residual",))),
    declared_inputs=("gather",),
    declared_outputs=("update",),
)


def stencil_graph() -> nc.ValidatedGraph:
    """The gather→residual→update template, 64 copies × 32 steps on a
    ring: 6144 nodes."""
    return nc.validate_graph(
        nc.expand_template(STENCIL_TEMPLATE, 64, 32, nc.ring_coupling(64)))


def dense_graph(rows: int, leaves: int) -> nc.ValidatedGraph:
    """`rows` independent sums, each of `leaves` independent products."""
    nodes = []
    for r in range(rows):
        products = [nc.OpNode(f"r{r}m{i}", "mul") for i in range(leaves)]
        nodes += products + [nc.OpNode(f"r{r}s", "add", tuple(p.id for p in products))]
    return nc.validate_graph(nc.ComputeGraph(
        tuple(nodes),
        tuple(n.id for n in nodes if not n.inputs),
        tuple(f"r{r}s" for r in range(rows)),
    ))


def partition_digest(pr: nc.PartitionResult) -> str:
    families = tuple((label, tuple(frag.node_ids for frag in members))
                     for label, members in pr.families)
    payload = repr((families, tuple(sorted(pr.residual)), pr.p_threads))
    return hashlib.sha256(payload.encode()).hexdigest()


def _cases() -> dict[str, tuple]:
    cases = {
        "stencil_g3": (stencil_graph, 3),
        "stencil_g4": (stencil_graph, 4),
        "dense_32x6_g7": (lambda: dense_graph(32, 6), 7),
        "dense_4x7_g8": (lambda: dense_graph(4, 7), 8),
    }
    for entry in nc.mini_corpus():
        cases[f"corpus_{entry.name}"] = (
            lambda graph=entry.graph: nc.validate_graph(graph), entry.granularity)
    return cases


CASES = _cases()

GOLDEN: dict[str, str] = {
    'corpus_dense_rows_4x3': 'b198a37ff4dde6bf8270da6d7b45dfee7b8a087e8489f5f70a7778f53f45a452',
    'corpus_diamonds_3x4': '1f8b126b018909d5fe4f18ee401e3d2949b85eacf80e0ff0697781a9cc6b7979',
    'corpus_distinct_chain10_g5': '1304dd4d6ac087820b6aea12d0a40139bf9c6415693c6b1fc9c50e1716358848',
    'corpus_distinct_chain12_g3': '956d62c28e62a278f3d6fbe10cd64d0374153b1d05292e1aabe98af25618b98f',
    'corpus_distinct_chain6_whole': '92bd31a308919bdea8092acb6998371277015a5bfbe04e4964227faa414a61a4',
    'corpus_distinct_chain8_g2': 'a7c0e8290131ab5a783d1b190b8e8523620715e69d669093e9fbcc6d50a0b4d5',
    'corpus_distinct_diamond6_g3': 'e4c8117c218418fb5f7a139dc56b4a234b0b65bb765fc2fcb596aced1db64bac',
    'corpus_fanouts_4x3': '2dcc1fb60a6b26fa1ad31b34fdb6fcdcf3d3ca48f7179e74d57aab978c65cc05',
    'corpus_mixed_rows_2x2': '5dcd36befb766b0f94cad4a3c1347ca92f2fd3e1044e623928ff439a88f3eb8c',
    'corpus_offset_chain10_f_g2': 'aa3c4f42b7c50ff0a1625d8bfb58149d0d7a07aa4771c8651e6de74cb42c61c8',
    'corpus_offset_chain12_f_g3': '04ef41454d52d17e3f027b995787d985611d112deb6ba6bfe46706f3fba68359',
    'corpus_offset_chain12_fg_g2': 'a9a206498dd0871b77abfc75c7b96f5f9c9189a7d007c9b8374513550052bc72',
    'corpus_pairs_6x2': 'b6268dc5f50caea6b254647b5b3aeb3839f18d7ac27d393ff6fc14cd9939adcb',
    'corpus_path12_singletons': '52fbc4ba37f22a60b2314895d638c386d6fc57ba9663d8f411d363de4a01edaf',
    'corpus_random_dag_a': 'fad7736abe8a6ccdfad44e1fd63312e30dceae4e25abf5c6c86273b6d2f4bf1d',
    'corpus_random_dag_b': '79b309175eb736079954090543b1e5689d998cb5f8ebce75c91db804300541f5',
    'corpus_random_dag_c': '7deca482f0c9eefee221c6896962d08c54d49a9a0c8f3d3d5ec55dbf8e43577f',
    'corpus_relay_fan_3x3': '6b70b8b06ecff92e8a6097ea7cb413e733f7b6a40f46ec8153f2695f48e53f4b',
    'corpus_trap_star9': 'd8932241cf413ec39ddfbb4ccad88d12395cf7b1dabb58ffd9e6c8e07eb939d1',
    'corpus_twin_chains5_g5': '2bccd4f05cb865b59aa14ed15e84ae70bf4301a4262551a17dd7c3a54db1d7b9',
    'dense_32x6_g7': 'fd64f6c3f37a4334b3efd595e9d4e0d20e885ce3d78e7022c2c24b0a7dc99d6e',
    'dense_4x7_g8': 'fc37c2386a17b6be85ff5c42836ccf6c1b3a3ca2042cc49a0bd7aef36ec57521',
    'stencil_g3': '0785e42c80ab33396da7fd792e62ef42796971422ded3866778b5cfa84c8f92b',
    'stencil_g4': 'e04ad0c01e352e589655418efe8e3bb45b4e548c05026728f1f1d490e3e69d5f',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_partition_matches_golden_digest(name):
    build, granularity = CASES[name]
    assert partition_digest(nc.partition_isomorphic(build(), granularity)) == GOLDEN[name]


def test_golden_cases_cover_families_and_residuals():
    # The digests only protect labels and family order if the cases hold
    # several equal-size families, multi-member families and residuals.
    stencil = nc.partition_isomorphic(stencil_graph(), 4)
    assert [len(members) for _label, members in stencil.families] == [512, 448, 448, 64, 64]
    dense = nc.partition_isomorphic(dense_graph(4, 7), 8)
    assert dense.p_threads == 4 and len(dense.families) == 1
    with_residual = [name for name, (build, g) in CASES.items()
                     if nc.partition_isomorphic(build(), g).residual]
    assert len(with_residual) >= 3


if __name__ == "__main__":
    for case_name in sorted(CASES):
        build, granularity = CASES[case_name]
        digest = partition_digest(nc.partition_isomorphic(build(), granularity))
        print(f"    {case_name!r}: {digest!r},")
