"""The benchmark's tracer wraps latentgraph functions by attribute name, so
every name it lists must exist: a renamed or dropped import would otherwise
break the benchmark while the rest of the suite passes."""

import importlib.util
from pathlib import Path

import latentgraph
from tests.conftest import random_graph


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    for layer, owner_names, attrs, _ in tracing.TARGETS:
        for owner_name in owner_names:
            owner = getattr(latentgraph, owner_name, None)
            assert owner is not None, f"{layer}: latentgraph has no {owner_name}"
            for attr in attrs:
                assert callable(getattr(owner, attr, None)), f"{layer}: {owner_name}.{attr}"
    for attr in latentgraph.fileio.__all__:
        assert callable(getattr(latentgraph.fileio, attr, None)), f"fileio.{attr}"



def test_traced_edge_count_reads_the_packed_rows():
    # the tracer sizes graph spans from Adjacency.packed, not from edge_count
    tracing = load_tracing()
    config = latentgraph.sample_uniform(latentgraph.rectangle(2.0, 1.0), 300, 4)
    graphs = [
        latentgraph.generate_graph(config, latentgraph.Indicator(0.15), 0),
        random_graph(43, 0.3, seed=2),  # 43 columns: the last byte is padded
        latentgraph.Adjacency.from_edges(1, []),
    ]
    for adj in graphs:
        assert tracing._edge_count(adj) == adj.edge_count()
    assert graphs[0].edge_count() > 0 and graphs[1].edge_count() > 0
