import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from substream import (CutGraph, KeywordTable, ReservoirConfig,
                       load_features, load_keyword_table,
                       make_coverage_minus_dispersion, make_directed_cut,
                       make_facility_location, make_logdet, make_modular,
                       make_sqrt_coverage, similarity_from_features)
from substream.prng import SplitMix64

from helpers import random_similarity


def test_modular_rejects_negative_weight():
    with pytest.raises(ValueError):
        make_modular([1.0, -0.5])


def test_cut_graph_validation():
    with pytest.raises(ValueError):
        CutGraph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        CutGraph(2, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        CutGraph(2, [(0, 1, -1.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cut_graph_rejects_non_finite_weight(bad):
    with pytest.raises(ValueError, match=r"edge \(1, 0\) has weight"):
        CutGraph(2, [(0, 1, 1.0), (1, 0, bad)])


def _legacy_cut_tables(n, edges):
    """Edges, adjacency and out-weights as a plain conversion of every
    field and a ``get(..., 0.0) + w`` sum would give them."""
    edges = tuple((int(u), int(v), float(w)) for u, v, w in edges)
    out_adj = [{} for _ in range(n)]
    in_adj = [{} for _ in range(n)]
    for u, v, w in edges:
        out_adj[u][v] = out_adj[u].get(v, 0.0) + w
        in_adj[v][u] = in_adj[v].get(u, 0.0) + w
    return edges, out_adj, in_adj, [sum(a.values()) for a in out_adj]


def _cut_tables(g):
    st = make_directed_cut(g).open()
    return g.edges, st.out_adj, st.in_adj, st.gains


def _bits(tables):
    """The tables with every float as its exact bit pattern and sign."""
    edges, out_adj, in_adj, out_total = tables
    hexed = lambda d: [(k, w.hex()) for k, w in d.items()]
    return ([(type(e), type(e[0]), type(e[1]), type(e[2]), e[:2], e[2].hex())
             for e in edges],
            [hexed(a) for a in out_adj], [hexed(a) for a in in_adj],
            [t.hex() for t in out_total])


def test_cut_graph_normalizes_mixed_edges_like_a_plain_conversion():
    exact = [(0, 1, 0.1), (1, 2, 2.0), (0, 1, 0.2), (2, 0, -0.0),
             (0, 1, 0.3), (3, 2, 1.5), (1, 2, -0.0)]
    mixed = [(np.int64(0), True, np.float64(0.1)), [1, 2, 2],
             (False, np.int32(1), 0.2), (2, 0, np.float32(-0.0)),
             (0, 1, 0.3), (np.uint8(3), 2, 1.5), (True, 2, -0.0)]
    legacy = _bits(_legacy_cut_tables(4, exact))
    for edges in (exact, tuple(exact), mixed):
        assert _bits(_cut_tables(CutGraph(4, edges))) == legacy
    g = CutGraph(4, tuple(exact))
    assert all(kept is given for kept, given in zip(g.edges, exact))
    tables = _cut_tables(g)
    assert tables[1][0][1] == (0.0 + 0.1) + 0.2 + 0.3  # in edge order
    assert math.copysign(1.0, tables[1][2][0]) == 1.0  # -0.0 reads 0.0
    assert math.copysign(1.0, g.edges[3][2]) == -1.0  # the edge keeps it


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0)], "self-loop at vertex 2"),
    ([(0, 1, 1.0), (np.int64(0), 5, 1.0), (1, 1, 1.0)],
     r"edge \(0, 5\) outside vertex range"),
    ([(0, 1, 1.0), (True, False, math.nan), (0, 1, math.inf)],
     r"edge \(1, 0\) has weight nan"),
    ([(1, 2, np.float64(math.inf)), (0, 0, 1.0)],
     r"edge \(1, 2\) has weight inf"),
])
def test_cut_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        CutGraph(3, edges)


def test_directed_cut_examples():
    f = make_directed_cut(CutGraph(3, [(0, 1, 1.0), (1, 2, 2.0)]))
    assert f.value([1]) == 2.0
    assert f.value([0, 1, 2]) == 0.0
    assert f.value([]) == 0.0


def test_directed_cut_matches_edge_enumeration():
    # independent route: score every edge by the membership indicator product
    rng = SplitMix64(5)
    for _ in range(30):
        n = 4 + rng.randrange(8)
        edges = [(u, v, rng.uniform(0.0, 3.0))
                 for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.4]
        f = make_directed_cut(CutGraph(n, tuple(edges)))
        members = {u for u in range(n) if rng.random() < 0.5}
        direct = sum(w for (u, v, w) in edges if u in members and v not in members)
        assert abs(f.value(members) - direct) <= 1e-9


def test_coverage_minus_dispersion_examples():
    m = np.array([[1.0, 0.2], [0.2, 1.0]])
    f = make_coverage_minus_dispersion(m)
    assert abs(f.value([0]) - 0.2) <= 1e-12
    assert abs(f.value([0, 1]) - 0.0) <= 1e-12
    assert f.value([]) == 0.0


def test_facility_location_examples():
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    f = make_facility_location(m)
    assert abs(f.value([0]) - 0.75) <= 1e-12
    assert f.value([]) == 0.0
    eye = np.eye(3)
    g = make_facility_location(eye)
    assert abs(g.value([0, 1, 2]) - 1.0) <= 1e-12


def test_facility_estimator_full_sample_is_exact():
    rng = SplitMix64(7)
    m = random_similarity(rng, 9)
    exact = make_facility_location(m)
    sampled = make_facility_location(m, ReservoirConfig(r_cap=9, seed=3))
    for subset in ([0], [2, 5], [1, 3, 8], list(range(9))):
        assert sampled.value(subset) == exact.value(subset)  # bit for bit


def test_facility_estimator_subsample():
    rng = SplitMix64(8)
    m = random_similarity(rng, 12)
    est = make_facility_location(m, ReservoirConfig(r_cap=5, seed=1))
    exact = make_facility_location(m)
    val = est.value([0, 4])
    assert val >= 0.0
    assert abs(val - exact.value([0, 4])) < 1.0  # same scale, rough agreement
    with pytest.raises(ValueError):
        ReservoirConfig(r_cap=0)


def test_reservoir_fields_take_whole_numbers_only():
    assert ReservoirConfig(3.0, 2.0) == ReservoirConfig(3, 2)
    assert type(ReservoirConfig(3.0).r_cap) is int
    for name, args in [("r_cap", (2.5,)), ("r_cap", (math.nan,)),
                       ("r_cap", (math.inf,)), ("seed", (3, 0.5)),
                       ("seed", (3, math.nan))]:
        with pytest.raises(ValueError, match=f"field '{name}' must be an "
                                             "integer"):
            ReservoirConfig(*args)


def test_logdet_examples():
    m = np.eye(2)
    f = make_logdet(m, alpha=1.0)
    assert f.value([]) == 0.0
    assert abs(f.value([0, 1]) - 2.0 * math.log(2.0)) <= 1e-12
    g = make_logdet(np.array([[1.0]]), alpha=20.0)
    assert abs(g.value([0]) - math.log(21.0)) <= 1e-12


def test_logdet_monotone_on_random_instances():
    rng = SplitMix64(17)
    for _ in range(20):
        m = random_similarity(rng, 8)
        f = make_logdet(m, alpha=2.0)
        members = [u for u in range(8) if rng.random() < 0.5]
        u = rng.randrange(8)
        if u in members:
            continue
        assert f.marginal(u, members) >= -1e-7


def test_sqrt_coverage_examples():
    kw = KeywordTable(words=[{"w"}, {"w"}], values=[4.0, 9.0])
    f = make_sqrt_coverage(kw)
    assert abs(f.value([0]) - 2.0) <= 1e-12
    assert abs(f.value([0, 1]) - math.sqrt(13.0)) <= 1e-12
    assert f.value([]) == 0.0


def test_keyword_table_validation():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite and non-negative"):
            KeywordTable(words=[{"w"}], values=[bad])


def test_similarity_from_features_examples():
    same = similarity_from_features([[1.0, 2.0], [1.0, 2.0]], lam=0.7)
    assert abs(same[0, 1] - 1.0) <= 1e-12
    flat = similarity_from_features([[0.0], [1.0]], lam=0.0)
    assert np.all(np.abs(flat - 1.0) <= 1e-12)
    m = similarity_from_features([[0.0], [1.0]], lam=0.1)
    assert abs(m[0, 1] - math.exp(-0.1)) <= 1e-9
    assert m[0, 0] == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_similarity_and_logdet_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="lambda must be non-negative and "
                                         "finite"):
        similarity_from_features([[0.0], [1.0]], lam=bad)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        make_logdet(np.eye(2), alpha=bad)
    with pytest.raises(ValueError, match="alpha must be positive"):
        make_logdet(np.eye(2), alpha=0.0)


def test_sqrt_coverage_value_does_not_follow_string_hashing():
    # sets of strings iterate in an order that changes with the hash seed
    script = ("import sys; from substream import load_keyword_table, "
              "make_sqrt_coverage; f = make_sqrt_coverage("
              "load_keyword_table(sys.argv[1])); "
              "print([f.value(range(a, b)) for a in range(f.n) "
              "for b in range(a + 1, f.n + 1)])")
    path = Path(__file__).parent / "data" / "keywords.csv"
    src = str(Path(__file__).parent.parent / "src")
    values = {subprocess.run(
        [sys.executable, "-c", script, str(path)], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": str(seed),
             "PYTHONPATH": src}).stdout for seed in range(4)}
    assert len(values) == 1


def test_similarity_rejects_ragged_input():
    with pytest.raises(ValueError):
        similarity_from_features([[0.0, 1.0], [1.0]], lam=0.1)


def test_similarity_matrix_validation():
    bad = np.array([[1.0, 0.4], [0.1, 1.0]])
    with pytest.raises(ValueError):
        make_facility_location(bad)
    neg = np.array([[1.0, -0.1], [-0.1, 1.0]])
    with pytest.raises(ValueError):
        make_logdet(neg, alpha=1.0)


def test_header_only_feature_csv_names_the_empty_similarity_matrix(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,f1\n")
    sim = similarity_from_features(load_features(path), lam=0.5)
    with pytest.raises(ValueError, match="similarity matrix is empty"):
        make_logdet(sim, alpha=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_similarity_rejects_non_finite_entries(bad):
    m = np.array([[1.0, 0.2, 0.3], [0.2, 1.0, bad], [0.3, bad, 1.0]])
    for make in (make_facility_location, make_coverage_minus_dispersion,
                 lambda s: make_logdet(s, alpha=1.0)):
        with pytest.raises(ValueError, match=r"\(1, 2\) is not finite"):
            make(m)


def test_feature_csv_roundtrip(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,f1,f2\n1,0.5,1.5\n0,2.0,3.0\n")
    feats = load_features(path)
    assert feats.shape == (2, 2)
    assert feats[0].tolist() == [2.0, 3.0]
    assert feats[1].tolist() == [0.5, 1.5]


def test_feature_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,f1\n0,1.0\n2,2.0\n")
    with pytest.raises(ValueError):
        load_features(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_feature_csv_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,f1,f2\n0,1.0,2.0\n1,0.5,{bad}\n")
    with pytest.raises(ValueError, match="line 3: non-finite feature"):
        load_features(path)


def test_keyword_csv(tmp_path):
    path = tmp_path / "kw.csv"
    path.write_text("0,4.0,alpha;beta\n1,9.0,alpha\n")
    table = load_keyword_table(path)
    assert table.values == (4.0, 9.0)
    assert table.words[0] == {"alpha", "beta"}
    f = make_sqrt_coverage(table)
    assert abs(f.value([0, 1]) - (math.sqrt(13.0) + 2.0)) <= 1e-12
    for bad in ("nan", "inf", "-1"):
        path.write_text(f"0,4.0,alpha\n1,{bad},beta\n")
        message = f"line 2: keyword value {float(bad)}"
        with pytest.raises(ValueError, match=message):
            load_keyword_table(path)
