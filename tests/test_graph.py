import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingsl import graph as graph_module
from ingsl import tensor as T
from ingsl.errors import (
    CapacityError,
    ConfigError,
    DomainError,
    MetricError,
    ParseError,
    ShapeError,
)
from ingsl.graph import (
    Graph,
    SparseAdjacency,
    edge_homophily,
    generate_sbm,
    inject_structural_noise,
    load_bundle,
    mask_features,
    normalize_adjacency,
    normalize_entries,
    save_bundle,
)

from oracles import dense_normalize, sbm_unblocked


def tiny_graph(n=3, edges=((0, 1), (1, 2)), labels=None, features=None, classes=None):
    labels = np.array(labels if labels is not None else [0, 1, 0])
    features = features if features is not None else np.arange(n * 2.0).reshape(n, 2)
    masks = np.zeros((3, n), dtype=bool)
    for i in range(n):
        masks[i % 3, i] = True
    return Graph(
        features=features,
        labels=labels,
        edges=np.array(edges).reshape(-1, 2),
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
        classes=classes or int(labels.max()) + 1,
    )


def random_graph(rng, n, p=0.3):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    labels = rng.integers(0, 3, size=n)
    masks = np.zeros((3, n), dtype=bool)
    for i in range(n):
        masks[i % 3, i] = True
    return Graph(
        features=rng.normal(size=(n, 4)),
        labels=labels,
        edges=edges,
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
        classes=3,
    )


class TestBundleIO:
    def test_roundtrip_echo(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        g2 = load_bundle(tmp_path / "b")
        assert g2.n == 3 and g2.num_edges == 2
        assert np.array_equal(g2.edges, [[0, 1], [1, 2]])

    def test_roundtrip_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 12)
        save_bundle(g, tmp_path / "b")
        g2 = load_bundle(tmp_path / "b")
        assert np.array_equal(g.features, g2.features)  # bit-exact reals
        assert np.array_equal(g.labels, g2.labels)
        assert np.array_equal(g.edges, g2.edges)
        for name in ("train_mask", "val_mask", "test_mask"):
            assert np.array_equal(getattr(g, name), getattr(g2, name))

    def test_out_of_range_edge(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        (tmp_path / "b" / "edges.tsv").write_text("0 1\n2 5\n")
        with pytest.raises(ParseError, match="edges.tsv line 2"):
            load_bundle(tmp_path / "b")

    def test_duplicate_and_reversed_edges_dedupe(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        (tmp_path / "b" / "edges.tsv").write_text("0 1\n1 0\n0 1\n1 2\n")
        assert np.array_equal(load_bundle(tmp_path / "b").edges, [[0, 1], [1, 2]])

    def test_missing_file(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        (tmp_path / "b" / "labels.csv").unlink()
        with pytest.raises(ParseError, match="labels.csv"):
            load_bundle(tmp_path / "b")

    def test_deeply_nested_meta_is_parse_error(self, tmp_path):
        save_bundle(tiny_graph(), tmp_path / "b")
        (tmp_path / "b" / "meta.json").write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ParseError, match=r"^meta.json: invalid JSON \(maximum recursion depth"):
            load_bundle(tmp_path / "b")

    def test_row_count_mismatch(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        (tmp_path / "b" / "features.csv").write_text("1,2\n3,4\n")
        with pytest.raises(ParseError, match="features.csv"):
            load_bundle(tmp_path / "b")

    def test_unknown_mask_token(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        (tmp_path / "b" / "masks.csv").write_text("train\nval\neval\n")
        with pytest.raises(ParseError, match="masks.csv line 3"):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"])
    def test_only_line_ends_split_lines(self, tmp_path, sep):
        # str.splitlines would break line 2 in two and report line 4.
        save_bundle(tiny_graph(), tmp_path / "b")
        (tmp_path / "b" / "masks.csv").write_text(f"train\ntrain{sep}test\nval\n")
        with pytest.raises(ParseError, match="^masks.csv line 2: unknown split"):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends_load(self, tmp_path, end):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        for name in ("edges.tsv", "features.csv", "labels.csv", "masks.csv"):
            path = tmp_path / "b" / name
            path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        g2 = load_bundle(tmp_path / "b")
        assert np.array_equal(g2.features, g.features)
        assert np.array_equal(g2.labels, g.labels) and np.array_equal(g2.edges, g.edges)
        assert np.array_equal(g2.test_mask, g.test_mask)

    def test_label_out_of_range(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        (tmp_path / "b" / "labels.csv").write_text("0\n1\n9\n")
        with pytest.raises(ParseError, match="labels.csv line 3"):
            load_bundle(tmp_path / "b")

    def test_self_loop_line(self, tmp_path):
        g = tiny_graph()
        save_bundle(g, tmp_path / "b")
        (tmp_path / "b" / "edges.tsv").write_text("0 0\n")
        with pytest.raises(ParseError, match="self-loop"):
            load_bundle(tmp_path / "b")


class TestGraphInvariants:
    def test_masks_must_be_disjoint(self):
        with pytest.raises(ConfigError, match="disjoint"):
            Graph(
                features=np.zeros((2, 1)),
                labels=[0, 1],
                edges=[(0, 1)],
                train_mask=[True, True],
                val_mask=[True, False],
                test_mask=[False, True],
                classes=2,
            )

    def test_masks_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="mask"):
            Graph(
                features=np.zeros((2, 1)),
                labels=[0, 1],
                edges=[(0, 1)],
                train_mask=[True, False],
                val_mask=[False, True],
                test_mask=[False, False],
                classes=2,
            )

    def test_nan_features_rejected(self):
        with pytest.raises(ConfigError, match="NaN"):
            tiny_graph(features=np.array([[np.nan, 0], [0, 0], [0, 0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_features_rejected(self, bad):
        with pytest.raises(ConfigError, match="NaN or infinite"):
            tiny_graph(features=np.array([[0, 0], [0, bad], [0, 0]]))


class TestSparseAdjacency:
    # (id, rows, cols, value count, error class, match) on 3 nodes; an error
    # class of None accepts. Index arrays are checked by T.index_array.
    CASES = [
        ("empty", [], [], 0, None, None),
        ("row_major", [0, 0, 2], [0, 2, 1], 3, None, None),
        ("rows_out_of_order", [1, 0], [0, 1], 2, ConfigError, "row-major"),
        ("cols_out_of_order", [0, 0], [2, 1], 2, ConfigError, "row-major"),
        ("repeated_cell", [0, 1, 1], [2, 0, 0], 3, ConfigError, "repeated"),
        ("row_at_n", [0, 3], [0, 1], 2, DomainError, "out of range"),
        ("negative_row", [-1, 0], [0, 1], 2, DomainError, "out of range"),
        ("middle_row_at_n", [0, 5, 1], [0, 1, 2], 3, DomainError, "out of range"),
        ("col_at_n", [0, 1], [0, 3], 2, DomainError, "out of range"),
        ("negative_col", [0, 1], [-1, 0], 2, DomainError, "out of range"),
        ("index_lengths_differ", [1, 1, 2], [0, 1], 2, ConfigError, "aligned"),
        ("values_misaligned", [0, 1], [0, 1], 3, ConfigError, "aligned"),
        ("2d_indices", [[0, 1]], [[0, 1]], 2, ShapeError, "1-D"),
        # numpy would truncate 1.5 to row 1 and read the mask as columns 1, 0.
        ("float_rows", [0.0, 1.5], [0, 1], 2, ShapeError, "must hold integers"),
        ("integral_float_cols", [0, 1], [0.0, 2.0], 2, ShapeError, "must hold integers"),
        ("bool_cols", [0, 1], np.array([True, False]), 2, ShapeError, "must hold integers"),
        ("int32_indices", np.array([0, 2], dtype=np.int32), np.array([1, 0], dtype=np.uint16), 2,
         None, None),
    ]

    @pytest.mark.parametrize(
        "rows,cols,m,error,match", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_invariant(self, rows, cols, m, error, match):
        def build():
            return SparseAdjacency(rows, cols, T.constant(np.ones(m)), 3)

        if error is None:
            assert build().nnz == m
        else:
            with pytest.raises(error, match=match):
                build()


class TestNormalization:
    def test_isolated_node(self):
        g = tiny_graph(edges=np.zeros((0, 2)))
        sub = normalize_adjacency(g).to_dense()
        assert np.array_equal(sub, np.eye(3))

    def test_two_nodes_single_edge_all_half(self):
        # Degrees are 1+1=2 on both ends, so every block entry is 0.5; the
        # isolated third node keeps its bare self-loop.
        g = tiny_graph(edges=[(0, 1)])
        dense = normalize_adjacency(g).to_dense()
        assert np.allclose(dense[:2, :2], 0.5, atol=1e-15)
        assert dense[2, 2] == 1.0 and dense[2, :2].sum() == 0.0


class TestNormalizeOracle:
    def test_random_graph_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 20)
        dense = np.zeros((20, 20))
        for i, j in g.edges:
            dense[i, j] = dense[j, i] = 1.0
        got = normalize_adjacency(g).to_dense()
        assert np.abs(got - dense_normalize(dense)).max() < 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_graph(rng, 15)
            dense = normalize_adjacency(g).to_dense()
            assert np.abs(dense - dense.T).max() == 0.0

    def test_entries_are_inverse_sqrt_degree_products(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 12)
        deg = np.ones(12)
        for i, j in g.edges:
            deg[i] += 1
            deg[j] += 1
        dense = normalize_adjacency(g).to_dense()
        for i, j in g.edges:
            assert abs(dense[i, j] - 1.0 / np.sqrt(deg[i] * deg[j])) < 1e-12
        for i in range(12):
            assert abs(dense[i, i] - 1.0 / deg[i]) < 1e-12

    def test_weighted_entries(self):
        entries = [(0, 1, 2.0), (1, 0, 2.0), (1, 2, 0.5), (2, 1, 0.5)]
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 2.0
        dense[1, 2] = dense[2, 1] = 0.5
        src, dst, w = (np.array(col) for col in zip(*entries))
        got = normalize_entries(3, src, dst, T.constant(w)).to_dense()
        assert np.abs(got - dense_normalize(dense)).max() < 1e-12

    def test_negative_weight_rejected(self):
        from ingsl.errors import DomainError

        with pytest.raises(DomainError):
            normalize_entries(2, np.array([0]), np.array([1]), T.constant([-1.0]))

    @pytest.mark.parametrize("n_src,n_dst,n_w", [(5, 4, 5), (4, 4, 5)])
    def test_misaligned_entries_rejected(self, n_src, n_dst, n_w):
        src = np.arange(n_src) % 3
        dst = (np.arange(n_dst) + 1) % 3
        with pytest.raises(ConfigError, match="aligned"):
            normalize_entries(3, src, dst, T.constant(np.ones(n_w)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(4, 16))
    def test_oracle_property(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        dense = np.zeros((n, n))
        for i, j in g.edges:
            dense[i, j] = dense[j, i] = 1.0
        got = normalize_adjacency(g).to_dense()
        assert np.abs(got - dense_normalize(dense)).max() < 1e-12


class TestHomophily:
    def test_all_same_label(self):
        g = tiny_graph(labels=[1, 1, 1], classes=2)
        assert edge_homophily(g) == 1.0

    def test_bipartite_zero(self):
        g = tiny_graph(labels=[0, 1, 0])  # path 0-1-2 alternates labels
        assert edge_homophily(g) == 0.0

    def test_empty_edge_set_undefined(self):
        g = tiny_graph(edges=np.zeros((0, 2)))
        with pytest.raises(MetricError):
            edge_homophily(g)


class TestSBM:
    def test_deterministic_limit_two_triangles(self):
        g = generate_sbm([3, 3], p_in=1.0, p_out=0.0, feature_dim=2, feature_noise=0.0, seed=0)
        assert g.num_edges == 6
        assert edge_homophily(g) == 1.0

    def test_empty(self):
        g = generate_sbm([3, 3], p_in=0.0, p_out=0.0, feature_dim=2, feature_noise=0.0, seed=0)
        assert g.num_edges == 0

    def test_edge_count_within_three_sigma(self):
        g = generate_sbm([50] * 4, p_in=0.1, p_out=0.01, feature_dim=4, feature_noise=0.5, seed=7)
        intra = 4 * (50 * 49 // 2)
        inter = 200 * 199 // 2 - intra
        mean = intra * 0.1 + inter * 0.01
        std = np.sqrt(intra * 0.1 * 0.9 + inter * 0.01 * 0.99)
        assert abs(g.num_edges - mean) < 3 * std

    def test_masks_per_class_split(self):
        g = generate_sbm([30, 30], 0.2, 0.02, 4, 0.1, seed=1)
        for c in (0, 1):
            ids = g.labels == c
            assert g.train_mask[ids].sum() == 3
            assert g.val_mask[ids].sum() == 3
            assert g.test_mask[ids].sum() == 24

    def test_determinism(self):
        a = generate_sbm([10, 10], 0.4, 0.05, 3, 0.7, seed=9)
        b = generate_sbm([10, 10], 0.4, 0.05, 3, 0.7, seed=9)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.train_mask, b.train_mask)

    def test_zero_blocks_config_error(self):
        with pytest.raises(ConfigError):
            generate_sbm([], 0.5, 0.5, 2, 0.0, seed=0)

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            generate_sbm([5, 5], 1.5, 0.0, 2, 0.0, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(3, 25), min_size=1, max_size=4),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.sampled_from([0.0, 0.05, 0.5]),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
        st.integers(1, 200),
    )
    def test_blocked_draw_equals_one_draw(self, sizes, p_in, p_out, dim, seed, block):
        # Blocks of a few rows up to one block for the whole graph: the
        # edges, features and masks are those of a single triu draw.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_SBM_BLOCK", block)
            g = generate_sbm(sizes, p_in, p_out, dim, 0.5, seed)
        edges, features, masks = sbm_unblocked(sizes, p_in, p_out, dim, 0.5, seed)
        assert g.edges.dtype == np.int64 and np.array_equal(g.edges, edges)
        assert np.array_equal(g.features, features)
        for got, want in zip((g.train_mask, g.val_mask, g.test_mask), masks):
            assert np.array_equal(got, want)

    def test_peak_memory_is_not_quadratic(self):
        # One triu draw held about 16 bytes per node pair (2.06 x 8 n^2 at
        # n = 2000); blocked, the generator's peak stays far below that.
        n = 2000
        tracemalloc.start()
        try:
            generate_sbm([n // 4] * 4, 0.05, 0.01, 16, 1.0, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * n * n


class TestStructuralNoise:
    def test_zero_ratios_identity(self):
        g = tiny_graph()
        g2 = inject_structural_noise(g, 0.0, 0.0, seed=0)
        assert np.array_equal(g.edges, g2.edges)

    def test_delete_all(self):
        g = tiny_graph()
        assert inject_structural_noise(g, 0.0, 1.0, seed=0).num_edges == 0

    def test_exact_counts_and_freshness(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 30)
        while g.num_edges < 100:
            g = random_graph(rng, 30, p=0.4)
        g = Graph(
            features=g.features,
            labels=g.labels,
            edges=g.edges[:100],
            train_mask=g.train_mask,
            val_mask=g.val_mask,
            test_mask=g.test_mask,
            classes=g.classes,
        )
        g2 = inject_structural_noise(g, 0.25, 0.25, seed=11)
        assert g2.num_edges == 100
        before, after = (set(map(tuple, x.edges.tolist())) for x in (g, g2))
        added, removed = after - before, before - after
        assert len(added) == 25 and len(removed) == 25
        assert not (added & before)

    def test_determinism_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 20)
        for i, fn in enumerate(
            (
                lambda: inject_structural_noise(g, 0.2, 0.2, seed=3),
                lambda: mask_features(g, 0.3, seed=3),
            )
        ):
            save_bundle(fn(), tmp_path / f"a{i}")
            save_bundle(fn(), tmp_path / f"b{i}")
            for name in ("edges.tsv", "features.csv", "labels.csv", "masks.csv"):
                assert (tmp_path / f"a{i}" / name).read_bytes() == (
                    tmp_path / f"b{i}" / name
                ).read_bytes()

    def test_capacity_error(self):
        g = tiny_graph()  # 3 nodes: 3 possible pairs, 2 used
        with pytest.raises(CapacityError):
            inject_structural_noise(g, 2.0, 0.0, seed=0)  # wants 4 new edges


class TestMaskFeatures:
    def test_zero_ratio_identity(self):
        g = tiny_graph()
        assert np.array_equal(mask_features(g, 0.0, seed=0).features, g.features)

    def test_full_ratio_zeroes_everything(self):
        g = tiny_graph()
        assert not mask_features(g, 1.0, seed=0).features.any()

    def test_half_ratio_exact_count(self):
        g = tiny_graph(n=10, edges=[(0, 1)], labels=list(range(3)) * 3 + [0],
                       features=np.ones((10, 10)), classes=3)
        masked = mask_features(g, 0.5, seed=2)
        assert (masked.features == 0).sum() == 50

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            mask_features(tiny_graph(), 1.5, seed=0)
