import math
import os
import re
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
from substream.bench import gen_erdos_renyi
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
    # the graph stores three arrays holding the edges' exact bits
    assert (g.src.dtype, g.dst.dtype, g.weight.dtype) == (
        np.int64, np.int64, np.float64)
    assert g.src.tolist() == [u for u, _, _ in exact]
    assert g.dst.tolist() == [v for _, v, _ in exact]
    assert ([w.hex() for w in g.weight.tolist()]
            == [w.hex() for _, _, w in exact])
    assert math.copysign(1.0, g.weight[3]) == -1.0  # -0.0 is stored
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
    ([(0.7, 1, 1.0), (2, 3.9, 2.0)],
     r"in edge \(0\.7, 1, 1\.0\) must be an integer, got 0\.7"),
    ([(0, 1, 1.0), (2, 1.5, 1.0), (1, 1, 1.0)],
     r"in edge \(2, 1\.5, 1\.0\) must be an integer, got 1\.5"),
    ([(0, 1, 1.0), (np.float64(0.5), 2, 1.0)],
     r"must be an integer, got (np\.float64\()?0\.5"),
    ([(0, 0, 1.0), (0.7, 1, 1.0)], "self-loop at vertex 0"),
    ([(0, 1, math.nan), (2, math.nan, 1.0)], r"edge \(0, 1\) has weight nan"),
    ([(0, 2, 1.0), (0, 1, "x")], r"edge \(0, 1\) has weight 'x'"),
    ([(0, 2, 1.0), (2, 1, None)], r"edge \(2, 1\) has weight None"),
    ([(1, 1, 1.0), (0, 1, "x")], "self-loop at vertex 1"),
    ([(0, 1, None), (0.5, 1, 1.0)], r"edge \(0, 1\) has weight None"),
    ([(0, 2, 1.0), (0, 1, 10**400)], r"edge \(0, 1\) has weight 1000"),
    pytest.param([(0, 1, 1.0), ("2", 1, 1.0), (0, 2.5, 1.0)],
                 r"in edge \('2', 1, 1\.0\) must be an integer, got '2'",
                 id="string-endpoint"),
    *(pytest.param([(0, 2, 1.0), edge, (1, 1, 1.0)],
                   rf"edge {re.escape(repr(edge))} is not a sequence of "
                   r"three fields \(u, v, w\)", id=name)
      for name, edge in [("two-fields", (0, 1)), ("four-fields", (0, 1, 1, 2)),
                         ("int", 5), ("none", None)]),
])
def test_cut_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        CutGraph(3, edges)


def test_cut_graph_takes_whole_float_endpoints():
    g = CutGraph(4, [(3.0, 1, 1.0), (np.float64(2.0), 0.0, 2.0)])
    assert g.edges == ((3, 1, 1.0), (2, 0, 2.0))
    assert g.edges == CutGraph(4, [(3, 1, 1.0), (2, 0, 2.0)]).edges


@pytest.mark.parametrize("bad", [2.5, math.nan, 0])
def test_cut_graph_needs_a_whole_positive_vertex_count(bad):
    with pytest.raises(ValueError, match="n_vertices|at least one vertex"):
        CutGraph(bad, ())
    with pytest.raises(ValueError, match="n_vertices|at least one vertex"):
        CutGraph.from_arrays(bad, [], [], [])


def test_cut_graph_takes_a_whole_float_vertex_count():
    g = CutGraph(3.0, [(0, 2, 1.0)])
    assert g.n_vertices == 3 and type(g.n_vertices) is int
    assert make_directed_cut(g).value([0]) == 1.0


@pytest.mark.parametrize("src, dst, weight, error, message", [
    ([[0, 1]], [1], [1.0], ValueError, "src must be one-dimensional"),
    (["0"], [1], [1.0], TypeError, "src must be numeric, got dtype <U1"),
    ([0, 1], [1], [1.0], ValueError,
     "src, dst and weight must have one entry per edge"),
], ids=["2-d", "strings", "lengths"])
def test_from_arrays_rejects_malformed_arrays(src, dst, weight, error,
                                              message):
    with pytest.raises(error, match=message):
        CutGraph.from_arrays(2, src, dst, weight)


@pytest.mark.parametrize("src, dst, weight, message", [
    ([0, 1, 2], [1, 1, 0], [1.0, 1.0, 1.0], "self-loop at vertex 1"),
    ([0, 1, 2], [1, 3, 0], [1.0, 1.0, -1.0], r"edge \(1, 3\) outside"),
    ([0, -1], [1, 0], [1.0, 1.0], r"edge \(-1, 0\) outside"),
    ([0, 1], [1, 2], [-1.0, math.nan], r"edge \(0, 1\) has weight -1\.0"),
    ([0, 1], [1, 2], [1.0, math.nan], r"edge \(1, 2\) has weight nan"),
    ([0, 1], [1, 2], [1.0, math.inf], r"edge \(1, 2\) has weight inf"),
], ids=["self-loop", "range", "negative-id", "negative", "nan", "inf"])
def test_from_arrays_names_the_first_bad_edge(src, dst, weight, message):
    with pytest.raises(ValueError, match=message):
        CutGraph.from_arrays(3, np.array(src), np.array(dst), np.array(weight))


def test_cut_graph_owns_read_only_arrays():
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    weight = np.array([1.0, 2.0, 4.0])
    g = CutGraph.from_arrays(3, src, dst, weight)
    f = make_directed_cut(g)
    before = [f.value(s) for s in ([0], [1], [0, 1])]
    for arr in (g.src, g.dst, g.weight):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    with pytest.raises(AttributeError):
        g.src = dst
    src[0], dst[1], weight[2] = 2, 1, 100.0  # the caller's copies only
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0))
    g2 = make_directed_cut(g)
    assert [g2.value(s) for s in ([0], [1], [0, 1])] == before == [1.0, 2.0, 2.0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cut_tables_from_arrays_match_the_legacy_loop(seed):
    # parallel arcs, -0.0 weights and arcs in both directions
    rng = SplitMix64(seed)
    n = 12
    edges = []
    for _ in range(150):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            w = -0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0)
            edges.append((u, v, w))
    src, dst, weight = (np.array(col) for col in zip(*edges))
    g = CutGraph.from_arrays(n, src, dst, weight)
    legacy = _legacy_cut_tables(n, edges)
    assert len(set(edges)) > len({e[:2] for e in edges})  # parallel arcs
    assert _bits(_cut_tables(g)) == _bits(legacy)
    assert _bits(_cut_tables(CutGraph(n, edges))) == _bits(legacy)


def test_cut_tables_hold_one_int_object_per_vertex():
    g = gen_erdos_renyi(300, 0.05, 4, weight_mode="exp")
    st = make_directed_cut(g).open()
    vertex = {}
    for adj in st.out_adj + st.in_adj:
        for key in adj:
            assert vertex.setdefault(key, key) is key
    assert len(vertex) > 256  # beyond the ints Python keeps one object of


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
    # a member of value 0 adds nothing, also to a word only it carries
    zero = make_sqrt_coverage(KeywordTable(words=[{"w"}, {"w", "v"}],
                                           values=[4.0, 0.0]))
    assert zero.value([1]) == 0.0 and zero.value([0, 1]) == 2.0


def test_keyword_table_validation():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite and non-negative"):
            KeywordTable(words=[{"w"}], values=[bad])
    with pytest.raises(ValueError, match="words and values must align"):
        KeywordTable(words=[{"w"}, {"v"}], values=[1.0])


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
    with pytest.raises(ValueError, match="features must be a 2-d array"):
        similarity_from_features(np.zeros((2, 2, 2)), lam=0.1)


def test_similarity_matrix_validation():
    bad = np.array([[1.0, 0.4], [0.1, 1.0]])
    with pytest.raises(ValueError):
        make_facility_location(bad)
    neg = np.array([[1.0, -0.1], [-0.1, 1.0]])
    with pytest.raises(ValueError):
        make_logdet(neg, alpha=1.0)
    with pytest.raises(ValueError, match="similarity matrix must be square"):
        make_coverage_minus_dispersion(np.ones((2, 3)))


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
    for text in ("", "ident,f1\n0,1.0\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="must start with an 'id' header"):
            load_features(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_feature_csv_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,f1,f2\n0,1.0,2.0\n1,0.5,{bad}\n")
    with pytest.raises(ValueError, match="line 3: non-finite feature"):
        load_features(path)


@pytest.mark.parametrize("text, message", [
    ("id,f1\n0,1.0\nx,2.0\n", "line 3: .*'x'"),
    ("id,f1,f2\n0,zz,1.0\n", "line 2: .*'zz'"),
    ("id,f1\n0,1.0\n\n2.5,1.0\n", "line 4: .*'2.5'"),
    ("id,f1,f2\n0,1.0,2.0\n1,3.0\n", "line 3: expected 2 features"),
    ("id,f1\n0,1.0\n0,2.0\n", "line 3: duplicate id 0"),
])
def test_feature_csv_parse_errors_name_their_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("text, message", [
    ("0,4.0,alpha\n1,abc,beta\n", "line 2: .*'abc'"),
    ("# ids\n0,4.0,alpha\nx,1.0,beta\n", "line 3: .*'x'"),
    ("0,4.0,alpha\n1\n", "line 2: expected id,value,words"),
    ("0,4.0,alpha\n0,1.0,beta\n", "line 2: duplicate id 0"),
])
def test_keyword_csv_parse_errors_name_their_line(tmp_path, text, message):
    path = tmp_path / "kw.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_keyword_table(path)


def test_a_weight_map_must_be_keyed_from_zero():
    with pytest.raises(ValueError,
                       match=r"^weight map keys must be exactly 0\.\.n-1$"):
        make_modular({1: 1.0, 2: 2.0})
    assert make_modular({1: 2.0, 0: 1.0}).value([0]) == 1.0  # any key order


@pytest.mark.parametrize("load, text, subject", [
    (load_features, "id,f1\n1,0.5\n2,1.5\n", "feature ids"),
    (load_keyword_table, "1,1.0,a\n2,2.0,b\n", "keyword ids"),
])
def test_data_file_ids_must_run_from_zero(tmp_path, load, text, subject):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(ValueError,
                       match=rf"^{subject} must be exactly 0\.\.n-1$"):
        load(path)
