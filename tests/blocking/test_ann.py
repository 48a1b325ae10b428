"""Tests for the ANN blocking substrate (minhash LSH + small-world graph)."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    AnnBlocker,
    AnnConfig,
    QGramBlocker,
    SmallWorldGraph,
    evaluate_blocking,
    make_index,
    provenance_sweep,
    tune_ann,
)
from repro.data.records import RecordStore, Schema
from repro.datasets.generator import SourcePair
from repro.datasets.registry import load_source_pair
from repro.text.feature_store import FeatureStore
from repro.text.kernels import (
    EMPTY_SIGNATURE,
    CodeTable,
    band_keys,
    minhash_params,
    minhash_signatures,
)
from tests.conftest import make_record


class TestMinhashKernels:
    def test_signature_shape_and_dtype(self):
        rows = [np.array([1, 2, 3], dtype=np.int64), np.array([4], dtype=np.int64)]
        signatures = minhash_signatures(rows, n_hashes=16, seed=0)
        assert signatures.shape == (2, 16)
        assert signatures.dtype == np.uint64

    def test_identical_sets_identical_signatures(self):
        a = np.array([10, 20, 30], dtype=np.int64)
        b = np.array([30, 10, 20, 10], dtype=np.int64)  # same set, dup/order
        signatures = minhash_signatures([a, b], n_hashes=64, seed=3)
        assert np.array_equal(signatures[0], signatures[1])

    def test_collision_rate_tracks_jaccard(self):
        # Signature agreement approximates Jaccard similarity: a pair
        # with J=0.8 must agree on far more hash positions than J=0.
        base = np.arange(100, dtype=np.int64)
        overlapping = np.arange(10, 110, dtype=np.int64)  # J ~ 0.82
        disjoint = np.arange(1000, 1100, dtype=np.int64)  # J = 0
        signatures = minhash_signatures(
            [base, overlapping, disjoint], n_hashes=256, seed=0
        )
        similar = float(np.mean(signatures[0] == signatures[1]))
        dissimilar = float(np.mean(signatures[0] == signatures[2]))
        assert similar > 0.6
        assert dissimilar < 0.1

    def test_empty_row_gets_sentinel(self):
        rows = [np.array([], dtype=np.int64), np.array([5], dtype=np.int64)]
        signatures = minhash_signatures(rows, n_hashes=8, seed=0)
        assert np.all(signatures[0] == EMPTY_SIGNATURE)
        assert not np.all(signatures[1] == EMPTY_SIGNATURE)

    def test_deterministic_per_seed(self):
        rows = [np.array([7, 8, 9], dtype=np.int64)]
        first = minhash_signatures(rows, n_hashes=32, seed=5)
        second = minhash_signatures(rows, n_hashes=32, seed=5)
        other = minhash_signatures(rows, n_hashes=32, seed=6)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_minhash_params_odd_multipliers(self):
        a, b = minhash_params(64, seed=0)
        assert a.dtype == np.uint64 and b.dtype == np.uint64
        assert np.all(a % np.uint64(2) == np.uint64(1))

    def test_band_keys_shape_and_validation(self):
        rows = [np.array([1, 2], dtype=np.int64)] * 3
        signatures = minhash_signatures(rows, n_hashes=16, seed=0)
        keys = band_keys(signatures, bands=4)
        assert keys.shape == (3, 4)
        with pytest.raises(ValueError):
            band_keys(signatures, bands=5)

    def test_band_keys_equal_for_equal_signatures(self):
        rows = [
            np.array([1, 2, 3], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
        ]
        signatures = minhash_signatures(rows, n_hashes=32, seed=1)
        keys = band_keys(signatures, bands=8)
        assert np.array_equal(keys[0], keys[1])


class TestAnnConfig:
    def test_defaults_valid(self):
        config = AnnConfig()
        assert config.backend == "lsh"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "faiss"},
            {"q": 0},
            {"n_hashes": 0},
            {"n_hashes": 64, "bands": 7},
            {"bands": 0},
            {"n_hashes": 64, "bands": 16, "min_shared_bands": 0},
            {"n_hashes": 64, "bands": 16, "min_shared_bands": 17},
            {"max_bucket": -1},
            {"k": 0},
            {"max_degree": 0},
            {"beam_width": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AnnConfig(**kwargs)

    def test_describe(self):
        lsh = AnnConfig(backend="lsh", n_hashes=64, bands=16, min_shared_bands=2)
        assert lsh.describe() == "lsh q=3 sig=64 bands=16 rows=4 shared>=2"
        graph = AnnConfig(backend="graph", k=5, max_degree=8, beam_width=16)
        assert graph.describe() == "graph q=3 K=5 deg=8 beam=16"


class TestAnnBlockerLsh:
    def test_deterministic(self, small_sources):
        config = AnnConfig(backend="lsh", n_hashes=64, bands=16)
        first = AnnBlocker(config).candidates(small_sources)
        second = AnnBlocker(config).candidates(small_sources)
        assert first == second

    def test_oriented_left_right(self, small_sources):
        config = AnnConfig(backend="lsh", n_hashes=64, bands=32)
        for left_id, right_id in AnnBlocker(config).candidates(small_sources):
            assert left_id in small_sources.left
            assert right_id in small_sources.right

    def test_finds_most_matches(self, small_sources):
        config = AnnConfig(backend="lsh", n_hashes=64, bands=32)
        result = evaluate_blocking(
            AnnBlocker(config).candidates(small_sources), small_sources
        )
        assert result.pair_completeness > 0.8

    def test_min_shared_bands_monotone(self, small_sources):
        # Demanding more shared buckets can only shrink the candidate set.
        loose = AnnBlocker(
            AnnConfig(backend="lsh", n_hashes=64, bands=16, min_shared_bands=1)
        ).candidates(small_sources)
        strict = AnnBlocker(
            AnnConfig(backend="lsh", n_hashes=64, bands=16, min_shared_bands=2)
        ).candidates(small_sources)
        assert strict <= loose

    def test_seed_changes_hash_family(self, small_sources):
        first = AnnBlocker(AnnConfig(seed=0)).candidates(small_sources)
        second = AnnBlocker(AnnConfig(seed=99)).candidates(small_sources)
        # Different hash families draw different bucket boundaries.
        assert first != second

    def test_max_bucket_zero_blocks_nothing(self, small_sources):
        config = AnnConfig(backend="lsh", max_bucket=0)
        assert AnnBlocker(config).candidates(small_sources) == set()


class TestAnnBlockerGraph:
    def test_deterministic(self, small_sources):
        config = AnnConfig(backend="graph", k=5)
        first = AnnBlocker(config).candidates(small_sources)
        second = AnnBlocker(config).candidates(small_sources)
        assert first == second

    def test_candidate_count_bounded_by_k(self, small_sources):
        config = AnnConfig(backend="graph", k=4)
        candidates = AnnBlocker(config).candidates(small_sources)
        assert len(candidates) <= 4 * len(small_sources.left)

    def test_oriented_left_right(self, small_sources):
        config = AnnConfig(backend="graph", k=3)
        for left_id, right_id in AnnBlocker(config).candidates(small_sources):
            assert left_id in small_sources.left
            assert right_id in small_sources.right

    def test_finds_most_matches(self, small_sources):
        result = evaluate_blocking(
            AnnBlocker(AnnConfig(backend="graph")).candidates(small_sources),
            small_sources,
        )
        assert result.pair_completeness > 0.7

    def test_search_interface(self, small_sources):
        index = make_index("graph", small_sources.right.records())
        record = next(iter(small_sources.left))
        result = index.search(record, 5)
        assert 0 < len(result) <= 5
        assert len(result.ids) == len(result.scores)
        for record_id in result.ids:
            assert record_id in small_sources.right
        assert list(result.scores) == sorted(result.scores, reverse=True)

    def test_search_self_retrieval(self, small_sources):
        # Querying with a record *of the indexed source* must retrieve
        # that record itself among the top hits (cosine 1.0 beats all).
        index = make_index("graph", small_sources.right.records())
        record = next(iter(small_sources.right))
        result = index.search(record, 3)
        assert record.record_id in result.ids
        assert max(result.scores) == pytest.approx(1.0)

    def test_insert_matches_rebuild(self, small_sources):
        # Appending records must answer bit-identically to an index
        # built over the full record list from scratch.
        records = small_sources.right.records()
        half = len(records) // 2
        grown = make_index("graph", records[:half])
        grown.insert(records[half:])
        rebuilt = make_index("graph", records)
        for probe in small_sources.left.records()[:15]:
            a, b = grown.search(probe, 5), rebuilt.search(probe, 5)
            assert a.ids == b.ids
            assert a.scores == b.scores

    def test_lsh_index_insert_matches_rebuild(self, small_sources):
        records = small_sources.right.records()
        half = len(records) // 2
        grown = make_index("lsh", records[:half])
        grown.insert(records[half:])
        rebuilt = make_index("lsh", records)
        for probe in small_sources.left.records()[:15]:
            a, b = grown.search(probe, 5), rebuilt.search(probe, 5)
            assert a.ids == b.ids
            assert a.scores == b.scores

    def test_insert_never_rebuilds(self, small_sources):
        from repro import obs as obs_package
        from repro.obs import Observability

        records = small_sources.right.records()
        with obs_package.use(Observability()) as o:
            index = make_index("graph", records[:20])
            index.insert(records[20:40])
            index.insert(records[40:60])
            assert o.metrics.counter("blocking.ann.index_builds") == 1.0
            assert o.metrics.counter("blocking.ann.index_inserts") == 40.0

    def test_make_index_search_finds_indexed_record(self, small_sources):
        index = make_index("graph", small_sources.right.records())
        record = next(iter(small_sources.right))
        assert record.record_id in index.search(record, 3).ids


class TestTuneAnn:
    def test_meets_recall_target(self, small_sources):
        tuned = tune_ann(small_sources, recall_target=0.85)
        assert tuned.pair_completeness >= 0.85

    def test_tuned_config_reproduces_standalone(self, small_sources):
        # The determinism acceptance: rerunning the winning config from a
        # fresh blocker must rebuild the exact candidate set.
        tuned = tune_ann(small_sources, recall_target=0.85)
        standalone = AnnBlocker(tuned.config).candidates(small_sources)
        assert frozenset(standalone) == tuned.result.candidates

    def test_unreachable_target_returns_best_effort(self, small_sources):
        tuned = tune_ann(
            small_sources,
            recall_target=1.0,
            signature_grid=(16,),
            band_grid=(2,),
            min_shared_grid=(2,),
        )
        assert 0.0 <= tuned.pair_completeness <= 1.0

    def test_zero_match_sources_meet_any_target(self):
        # Integration of the vacuous-PC fix: with no true matches every
        # config meets the target, so the tuner picks the *smallest*
        # candidate set instead of falling back.
        schema = Schema(("name",))
        sources = SourcePair(
            name="no_matches",
            left=RecordStore(
                "L",
                schema,
                [make_record("a0", "L", name="alpha beta gamma")],
            ),
            right=RecordStore(
                "R",
                schema,
                [make_record("b0", "R", name="delta epsilon zeta")],
            ),
            matches=frozenset(),
        )
        tuned = tune_ann(sources, recall_target=0.9)
        assert tuned.pair_completeness == 1.0

    def test_invalid_args(self, small_sources):
        with pytest.raises(ValueError):
            tune_ann(small_sources, recall_target=0.0)
        with pytest.raises(ValueError):
            tune_ann(small_sources, signature_grid=())


class TestProvenanceSweep:
    def test_all_backends_present(self, small_sources):
        sweep = provenance_sweep(small_sources, recall_target=0.85)
        assert set(sweep) == {"exhaustive", "lsh", "graph"}
        for provenance in sweep.values():
            assert 0.0 <= provenance.cssr <= 1.0
            assert provenance.seconds >= 0.0
            assert provenance.config

    def test_lsh_prunes_the_cross_product(self, small_sources):
        sweep = provenance_sweep(small_sources, recall_target=0.85)
        assert sweep["lsh"].result.n_candidates < (
            len(small_sources.left) * len(small_sources.right)
        )

    def test_backend_subset(self, small_sources):
        sweep = provenance_sweep(
            small_sources, recall_target=0.85, backends=("exhaustive",)
        )
        assert set(sweep) == {"exhaustive"}
        baseline = evaluate_blocking(
            QGramBlocker(q=3).candidates(small_sources), small_sources
        )
        assert sweep["exhaustive"].result.n_candidates == baseline.n_candidates


class _OracleGraph:
    """The reference small-world graph: the original per-node scorer.

    Rows are kept as sorted id arrays and scored by ``searchsorted``
    membership + ``bincount`` per beam step; degree pruning re-scores
    the whole neighbour list. Insertion order, beam search, entry points,
    tie-breaks and pruning rule are those :class:`SmallWorldGraph` must
    reproduce bit for bit. ``search_evals`` counts the nodes scored by
    searches (inserts included), not by pruning.
    """

    def __init__(self, rows, max_degree, beam_width, n_entry_points=8):
        self.max_degree = max_degree
        self.beam_width = beam_width
        self.n_entry_points = n_entry_points
        self.rows = []
        self.sizes = np.empty(0, dtype=np.int64)
        self.neighbors = []
        self.entry = None
        self.search_evals = 0
        for row in rows:
            node = len(self.rows)
            self.rows.append(row)
            self.sizes = np.append(self.sizes, len(row))
            self.neighbors.append([])
            self._insert(node)

    def _sims_to(self, query, query_size, nodes, searching=True):
        out = np.zeros(len(nodes), dtype=np.float64)
        if not nodes or query_size == 0 or len(query) == 0:
            return out
        if searching:
            self.search_evals += len(nodes)
        sizes = self.sizes[nodes]
        if int(sizes.sum()) == 0:
            return out
        flat = np.concatenate([self.rows[node] for node in nodes])
        positions = np.searchsorted(query, flat)
        positions[positions == len(query)] = 0
        matched = query[positions] == flat
        row_of = np.repeat(np.arange(len(nodes), dtype=np.int64), sizes)
        inter = np.bincount(row_of[matched], minlength=len(nodes))
        mask = sizes > 0
        out[mask] = inter[mask] / np.sqrt(float(query_size) * sizes[mask])
        return out

    def _search(self, query, query_size, beam):
        if self.entry is None:
            return []
        count = len(self.rows)
        seeds = {self.entry, count - 1}
        for probe in range(self.n_entry_points):
            seeds.add((probe * count) // self.n_entry_points)
        entries = sorted(seeds)
        entry_sims = self._sims_to(query, query_size, entries).tolist()
        visited = set(entries)
        frontier = [(-sim, entry) for entry, sim in zip(entries, entry_sims)]
        heapq.heapify(frontier)
        results = [(sim, -entry) for entry, sim in zip(entries, entry_sims)]
        heapq.heapify(results)
        while len(results) > beam:
            heapq.heappop(results)
        while frontier:
            negative_sim, node = heapq.heappop(frontier)
            if len(results) >= beam and -negative_sim < results[0][0]:
                break
            fresh = [n for n in self.neighbors[node] if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            sims = self._sims_to(query, query_size, fresh)
            for neighbor, sim in zip(fresh, sims.tolist()):
                if len(results) < beam or sim > results[0][0]:
                    heapq.heappush(frontier, (-sim, neighbor))
                    heapq.heappush(results, (sim, -neighbor))
                    if len(results) > beam:
                        heapq.heappop(results)
        found = [(sim, -negative_node) for sim, negative_node in results]
        found.sort(key=lambda item: (-item[0], item[1]))
        return found

    def _insert(self, node):
        row = self.rows[node]
        if len(row) == 0:
            return
        if self.entry is None:
            self.entry = node
            return
        beam = max(self.beam_width, self.max_degree)
        for __, other in self._search(row, len(row), beam)[: self.max_degree]:
            for source, target in ((node, other), (other, node)):
                neighbors = self.neighbors[source]
                if target in neighbors:
                    continue
                neighbors.append(target)
                if len(neighbors) > self.max_degree:
                    source_row = self.rows[source]
                    sims = self._sims_to(
                        source_row, len(source_row), neighbors,
                        searching=False,
                    )
                    order = sorted(
                        range(len(neighbors)),
                        key=lambda i: (-sims[i], neighbors[i]),
                    )
                    self.neighbors[source] = [
                        neighbors[i] for i in order[: self.max_degree]
                    ]

    def search(self, query, query_size, k):
        found = self._search(query, query_size, max(self.beam_width, k))
        return [(sim, node) for sim, node in found[:k] if sim > 0.0]

    def exhaustive(self, query, query_size, k):
        """The exact top-*k* cosine over every node, ties by node id."""
        sims = self._sims_to(
            query, query_size, list(range(len(self.rows))), searching=False
        ).tolist()
        order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
        return [(sims[i], i) for i in order[:k] if sims[i] > 0.0]


def _dense_rows(records):
    """The dense q-gram id sets a fresh graph index assigns *records*."""
    table = CodeTable()
    return [
        np.unique(table.intern(row)) if len(row) else np.empty(0, np.int64)
        for row in FeatureStore().rows(records, ("qgrams", None, 3))
    ]


def _oracle_for(index, records):
    config = index.config
    return _OracleGraph(
        _dense_rows(records), config.max_degree, config.beam_width
    )


def _probes(index, records):
    """``(dense probe, query size)`` of each record, as the index maps it."""
    raw_rows = index._store.rows(list(records), index._view)
    return [index.map_row(raw) for raw in raw_rows]


def _assert_same_graph(graph, oracle, probes, k):
    assert graph._neighbors == oracle.neighbors
    assert graph._entry == oracle.entry
    assert graph.sim_evals == oracle.search_evals
    for query, query_size in probes:
        assert graph.search(query, query_size, k) == oracle.search(
            query, query_size, k
        )
    assert graph.sim_evals == oracle.search_evals


class TestGraphOracle:
    """The bitset graph is bit-identical to the reference scorer."""

    def test_small_sources(self, small_sources):
        records = small_sources.right.records()
        index = make_index("graph", records)
        oracle = _oracle_for(index, records)
        probes = _probes(index, small_sources.left.records())
        _assert_same_graph(index.graph, oracle, probes, index.config.k)

    def test_grown_by_insert_matches_bulk_build(self, small_sources):
        records = small_sources.right.records()
        grown = make_index("graph", records[:40])
        grown.insert(records[40:90])
        for record in records[90:]:
            grown.insert([record])
        bulk = make_index("graph", records)
        oracle = _oracle_for(bulk, records)
        probes = _probes(bulk, small_sources.left.records()[:30])
        assert grown.graph._neighbors == bulk.graph._neighbors
        _assert_same_graph(grown.graph, oracle, probes, 5)
        _assert_same_graph(bulk.graph, _oracle_for(bulk, records), probes, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.frozensets(st.integers(0, 300), max_size=20), max_size=40
        ),
        queries=st.lists(
            st.frozensets(st.integers(0, 400), max_size=20),
            min_size=1,
            max_size=5,
        ),
        max_degree=st.integers(1, 6),
        beam_width=st.integers(1, 8),
        k=st.integers(1, 6),
    )
    def test_random_rows(self, rows, queries, max_degree, beam_width, k):
        # Ids up to 300 span five 64-bit words, so rows arriving one by
        # one grow the bitset width mid-build; query ids past every row
        # (up to 400) fall outside it and only count toward the size.
        rows = [np.array(sorted(row), dtype=np.int64) for row in rows]
        oracle = _OracleGraph(rows, max_degree, beam_width)
        grown = SmallWorldGraph((), max_degree, beam_width)
        for row in rows:
            grown.add_row(row)
        probes = [
            (np.array(sorted(query), dtype=np.int64), len(query))
            for query in queries
        ]
        _assert_same_graph(grown, oracle, probes, k)
        _assert_same_graph(
            SmallWorldGraph(rows, max_degree, beam_width),
            _OracleGraph(rows, max_degree, beam_width),
            probes,
            k,
        )


class TestGraphRecall:
    def test_abt_buy_topk_against_exhaustive(self):
        # Defaults (deg=16, beam=32, k=10) against the exact top-10
        # cosine over every indexed record: the figures DESIGN.md §10
        # states for abt_buy.
        sources = load_source_pair("abt_buy")
        records = sources.right.records()
        index = make_index("graph", records)
        oracle = _oracle_for(index, records)
        k = index.config.k
        found = 0
        relevant = 0
        graph_pairs = set()
        exact_pairs = set()
        probes = sources.left.records()
        for probe, (query, size) in zip(probes, _probes(index, probes)):
            graph = {node for __, node in index.graph.search(query, size, k)}
            exact = {node for __, node in oracle.exhaustive(query, size, k)}
            found += len(graph & exact)
            relevant += len(exact)
            for nodes, pairs in ((graph, graph_pairs), (exact, exact_pairs)):
                pairs.update(
                    (probe.record_id, records[node].record_id)
                    for node in nodes
                )
        recall = found / relevant
        graph_pc = evaluate_blocking(graph_pairs, sources).pair_completeness
        exact_pc = evaluate_blocking(exact_pairs, sources).pair_completeness
        assert round(recall, 3) == 0.889
        assert round(graph_pc, 3) == 0.726
        assert round(exact_pc, 3) == 0.852
