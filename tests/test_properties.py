"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.db.types import ColumnType, coerce_value, infer_column_type
from repro.retrofit.combine import concatenate_embeddings, normalise_rows
from repro.retrofit.extraction import RelationGroup
from repro.retrofit.hyperparams import (
    RetroHyperparameters,
    build_directed_relations,
    participation_counts,
)
from repro.serving.index import FlatIndex, IVFIndex, topk_descending
from repro.tasks.imputation import one_hot
from repro.text.embedding import WordEmbedding
from repro.text.tokenizer import normalise_text
from repro.text.trie import TokenTrie

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
words = st.text(
    alphabet=st.sampled_from("abcdefghij"), min_size=1, max_size=6
)
token_lists = st.lists(words, min_size=1, max_size=5)
small_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestTrieProperties:
    @given(st.lists(token_lists, min_size=1, max_size=20), token_lists)
    @settings(max_examples=60, deadline=None)
    def test_longest_match_equals_bruteforce(self, phrases, query):
        trie = TokenTrie()
        for tokens in phrases:
            trie.insert(tokens)
        length, phrase = trie.longest_match(query)

        best = 0
        for tokens in phrases:
            size = len(tokens)
            if size <= len(query) and query[:size] == tokens and size > best:
                best = size
        assert length == best
        if best > 0:
            assert phrase is not None and len(phrase.split("_")) == best

    @given(st.lists(token_lists, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_every_inserted_phrase_is_found(self, phrases):
        trie = TokenTrie()
        for tokens in phrases:
            trie.insert(tokens)
        for tokens in phrases:
            assert trie.contains(tokens)
            length, _ = trie.longest_match(tokens)
            assert length >= len(tokens) or length > 0


class TestTypeProperties:
    @given(st.integers(min_value=-10**9, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_integer_roundtrip(self, value):
        assert coerce_value(str(value), ColumnType.INTEGER) == value

    @given(small_floats)
    @settings(max_examples=50, deadline=None)
    def test_float_roundtrip(self, value):
        assert coerce_value(str(value), ColumnType.FLOAT) == float(str(value))

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_inferred_type_accepts_all_values(self, values):
        column_type = infer_column_type([str(v) for v in values])
        for value in values:
            coerce_value(str(value), column_type)


class TestTextProperties:
    @given(st.text(max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_normalise_text_is_lowercase_alnum(self, text):
        for token in normalise_text(text):
            assert token == token.lower()
            assert all(c.isalnum() or c == "'" for c in token)

    @given(words)
    @settings(max_examples=40, deadline=None)
    def test_embedding_canonical_idempotent(self, word):
        canonical = WordEmbedding.canonical(word)
        assert WordEmbedding.canonical(canonical) == canonical


class TestMatrixProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_normalise_rows_unit_or_zero(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0.0, 10.0, (rows, cols))
        matrix[0] = 0.0
        normalised = normalise_rows(matrix)
        norms = np.linalg.norm(normalised, axis=1)
        for norm in norms:
            assert norm == 0.0 or abs(norm - 1.0) < 1e-9

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_concatenation_preserves_rows(self, rows, left_cols, right_cols, seed):
        rng = np.random.default_rng(seed)
        left = rng.normal(size=(rows, left_cols))
        right = rng.normal(size=(rows, right_cols))
        combined = concatenate_embeddings(left, right)
        assert combined.shape == (rows, left_cols + right_cols)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_one_hot_rows_sum_to_one(self, labels):
        encoded = one_hot(np.array(labels), 6)
        assert np.allclose(encoded.sum(axis=1), 1.0)
        assert np.all((encoded == 0.0) | (encoded == 1.0))


class TestRelationProperties:
    pair_lists = st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=9)),
        min_size=1, max_size=30, unique=True,
    )

    @given(pair_lists)
    @settings(max_examples=50, deadline=None)
    def test_directed_relations_preserve_pairs(self, pairs):
        group = RelationGroup("r", "fk", "a", "b", pairs=sorted(set(pairs)))
        directed = build_directed_relations([group], n_values=10)
        forward, inverse = directed
        forward_pairs = set(zip(forward.source_rows.tolist(),
                                forward.target_rows.tolist()))
        inverse_pairs = set(zip(inverse.source_rows.tolist(),
                                inverse.target_rows.tolist()))
        assert forward_pairs == set(group.pairs)
        assert inverse_pairs == {(j, i) for i, j in group.pairs}

    @given(pair_lists)
    @settings(max_examples=50, deadline=None)
    def test_participation_counts_bounded(self, pairs):
        group = RelationGroup("r", "fk", "a", "b", pairs=sorted(set(pairs)))
        directed = build_directed_relations([group], n_values=10)
        counts = participation_counts(directed, 10)
        assert counts.min() >= 0
        assert counts.max() <= len(directed)
        participants = {i for pair in pairs for i in pair}
        for node in range(10):
            if node not in participants:
                assert counts[node] == 0

    @given(
        pair_lists,
        st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_gamma_mass_per_node_bounded_by_gamma(self, pairs, gamma, beta):
        """Eq. 12 normalisation: each node's total gamma weight over its
        outgoing edges of one relation is gamma / (|R_i| + 1)."""
        from repro.retrofit.hyperparams import DerivedWeights

        group = RelationGroup("r", "fk", "a", "b", pairs=sorted(set(pairs)))
        directed = build_directed_relations([group], n_values=10)
        params = RetroHyperparameters(alpha=1.0, beta=beta, gamma=gamma, delta=0.0)
        weights = DerivedWeights(params, 10, directed)
        for rel_index, relation in enumerate(directed):
            gamma_node = weights.gamma_node[rel_index]
            for node in relation.source_indices:
                total = gamma_node[node] * relation.out_degree[int(node)]
                participation = weights.participation[node]
                assert abs(total - gamma / (participation + 1)) < 1e-9


    @given(
        st.lists(pair_lists, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_dissimilarity_loss_equals_bruteforce_sum(self, groups, dim, seed):
        """The closed-form dissimilarity term of relational_loss equals the
        literal sum of δ_r·‖w_i − w_j‖² over every unrelated (source,
        target) combination of every relation."""
        from repro.retrofit.hyperparams import DerivedWeights
        from repro.retrofit.loss import relational_loss

        relation_groups = [
            RelationGroup(f"r{k}", "fk", "a", "b", pairs=sorted(set(pairs)))
            for k, pairs in enumerate(groups)
        ]
        directed = build_directed_relations(relation_groups, n_values=10)
        # W = W0 and β = γ = 0: only the dissimilarity term is left
        params = RetroHyperparameters(alpha=1.0, beta=0.0, gamma=0.0, delta=2.0)
        weights = DerivedWeights(params, 10, directed)
        matrix = np.random.default_rng(seed).normal(size=(10, dim))
        expected = 0.0
        for relation, delta in zip(directed, weights.delta_ro):
            related = set(zip(relation.source_rows.tolist(),
                              relation.target_rows.tolist()))
            for i in relation.source_indices.tolist():
                for j in relation.target_indices.tolist():
                    if (i, j) not in related:
                        expected -= delta * float(np.sum((matrix[i] - matrix[j]) ** 2))
        loss = relational_loss(matrix, matrix, matrix, weights)
        # relative tolerance 1e-10; the absolute floor covers an empty
        # complement, where the closed form leaves rounding residue
        assert abs(loss - expected) <= 1e-10 * abs(expected) + 1e-9


class TestIndexProperties:
    """Equivalence guards for the serving indexes, mirroring the naive-vs-
    vectorised solver guard in tests/retrofit/test_retro.py."""

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_flat_index_equals_loop_cosine_reference(self, rows, cols, k, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, cols))
        if rows > 1:
            matrix[rows // 2] = 0.0  # include an all-zero row
        query = rng.normal(size=cols)

        indices, scores = FlatIndex(matrix).query(query, k)

        reference = []
        for row in matrix:
            denom = np.linalg.norm(row) * (np.linalg.norm(query) + 1e-12)
            if denom == 0:
                denom = 1e-12
            reference.append(float(row @ query / denom))
        reference = np.array(reference)
        expected = np.argsort(-reference, kind="stable")[: min(k, rows)]

        assert np.allclose(scores, reference[indices], atol=1e-9)
        # rankings agree wherever scores are not float-level ties
        assert np.allclose(
            reference[indices], reference[expected], atol=1e-9
        )

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_ivf_equals_flat_topk(self, rows, cols, k, cells, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, cols))
        queries = rng.normal(size=(3, cols))
        n_cells = min(cells, rows)

        flat_indices, flat_scores = FlatIndex(matrix).query_batch(queries, k)
        ivf = IVFIndex(matrix, n_cells=n_cells, nprobe=n_cells, seed=seed % 97)
        ivf_indices, ivf_scores = ivf.query_batch(queries, k)

        assert ivf_indices.shape == flat_indices.shape
        assert np.allclose(flat_scores, ivf_scores, atol=1e-9)
        # continuous random scores: ties have measure zero, so the full
        # rankings must coincide row by row
        assert np.array_equal(flat_indices, ivf_indices)

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_topk_selection_equals_full_sort(self, n, k, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        assert np.array_equal(
            topk_descending(scores, k),
            np.argsort(-scores, kind="stable")[: min(k, n)],
        )
