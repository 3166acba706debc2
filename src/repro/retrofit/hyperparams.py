"""Hyperparameter handling for relational retrofitting (paper §4.4).

The four global hyperparameters α, β, γ and δ are turned into per-node /
per-relation weights:

* ``α_i = α`` for every text value,
* ``β_i = β / (|R_i| + 1)`` where ``|R_i|`` is the number of *directed*
  relation groups in which node ``i`` has outgoing edges (Eq. 12),
* ``γ^r_i = γ / (od_r(i) · (|R_i| + 1))`` for nodes with outgoing edges in
  group ``r`` (Eq. 12),
* for the optimisation-based solver (RO):
  ``δ^r_i = δ / (mc(r) · mr(r))`` (Eq. 13),
* for the series-based solver (RN): the dissimilarity term pushes each node
  away from the *centroid of all target vectors* of the relation (the paper
  describes this explicitly below Eq. 9); we therefore use
  ``δ^r_i = δ / (n_targets(r) · (|R_i| + 1))`` which makes the subtracted
  term exactly ``δ/(|R_i|+1)`` times that centroid (Eq. 14 with the set size
  read as the number of distinct targets of the relation).

The module also implements the convexity condition of Eq. 7 / Eq. 24.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import RetrofitError
from repro.retrofit.extraction import RelationGroup


@dataclass(frozen=True)
class RetroHyperparameters:
    """Global hyperparameters of the relational retrofitting problem.

    The defaults follow the configurations used in the paper's evaluation:
    ``α=1, β=0, γ=3`` with ``δ=3`` for the optimisation solver (RO) and
    ``δ=1`` for the series solver (RN).
    """

    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 3.0
    delta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise RetrofitError(f"hyperparameter {name} must be finite")
            if name != "delta" and value < 0:
                raise RetrofitError(f"hyperparameter {name} must be non-negative")
        if self.delta < 0:
            raise RetrofitError("hyperparameter delta must be non-negative")
        if self.alpha == 0 and self.beta == 0 and self.gamma == 0:
            raise RetrofitError(
                "at least one of alpha, beta, gamma must be positive"
            )

    def replace(self, **changes: float) -> "RetroHyperparameters":
        """A copy with some fields changed (convenience for grid searches)."""
        values = {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
        }
        values.update(changes)
        return RetroHyperparameters(**values)

    @classmethod
    def paper_ro_default(cls) -> "RetroHyperparameters":
        """The configuration the paper uses for the RO solver (α=1,β=0,γ=3,δ=3)."""
        return cls(alpha=1.0, beta=0.0, gamma=3.0, delta=3.0)

    @classmethod
    def paper_rn_default(cls) -> "RetroHyperparameters":
        """The configuration the paper uses for the RN solver (α=1,β=0,γ=3,δ=1)."""
        return cls(alpha=1.0, beta=0.0, gamma=3.0, delta=1.0)


@dataclass
class DirectedRelation:
    """One directed relation group (a forward or inverted ``Er``)."""

    name: str
    source_rows: np.ndarray
    target_rows: np.ndarray
    source_indices: np.ndarray = field(init=False)
    target_indices: np.ndarray = field(init=False)
    #: Out-degree of every node in :attr:`source_indices`, aligned with it.
    out_degree_counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.source_rows = np.asarray(self.source_rows, dtype=np.int64)
        self.target_rows = np.asarray(self.target_rows, dtype=np.int64)
        if self.source_rows.shape != self.target_rows.shape:
            raise RetrofitError(
                f"relation {self.name}: source/target index arrays differ in length"
            )
        self.source_indices, self.out_degree_counts = np.unique(
            self.source_rows, return_counts=True
        )
        self.target_indices = np.unique(self.target_rows)

    @property
    def out_degree(self) -> dict[int, int]:
        """``od_r(i)`` per source node (built on demand; prefer the arrays)."""
        return {
            int(node): int(count)
            for node, count in zip(self.source_indices, self.out_degree_counts)
        }

    @property
    def source_positions(self) -> np.ndarray:
        """Position of every pair's source in :attr:`source_indices`.

        Built on every access.
        """
        return np.searchsorted(self.source_indices, self.source_rows)

    def __len__(self) -> int:
        return len(self.source_rows)

    @property
    def n_sources(self) -> int:
        """Number of distinct source nodes."""
        return len(self.source_indices)

    @property
    def n_targets(self) -> int:
        """Number of distinct target nodes."""
        return len(self.target_indices)

    def max_cardinality(self) -> int:
        """``mc(r)`` of Eq. 13: max of the two participating column cardinalities."""
        return max(self.n_sources, self.n_targets)


def build_directed_relations(
    relation_groups: list[RelationGroup], n_values: int
) -> list[DirectedRelation]:
    """Expand every extracted relation group into forward + inverted directions."""
    directed: list[DirectedRelation] = []
    for group in relation_groups:
        if not group.pairs:
            continue
        pairs = np.asarray(group.pairs, dtype=np.int64)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n_values):
            raise RetrofitError(
                f"relation group {group.name!r} references out-of-range indices"
            )
        directed.append(
            DirectedRelation(
                name=group.name,
                source_rows=pairs[:, 0],
                target_rows=pairs[:, 1],
            )
        )
        directed.append(
            DirectedRelation(
                name=f"{group.name}::inv",
                source_rows=pairs[:, 1],
                target_rows=pairs[:, 0],
            )
        )
    return directed


def participation_counts(
    directed: list[DirectedRelation], n_values: int
) -> np.ndarray:
    """``|R_i|`` for every node: in how many directed groups it has out-edges."""
    counts = np.zeros(n_values, dtype=np.int64)
    for relation in directed:
        counts[relation.source_indices] += 1
    return counts


@dataclass
class DerivedWeights:
    """All per-node and per-relation weights derived from the global settings.

    The per-relation node weights γ^r_i and δ^r_i (RN) are non-zero only on
    the relation's source nodes, so they are stored per source:
    ``gamma_source[r][p]`` belongs to node ``directed[r].source_indices[p]``.
    :attr:`gamma_node` and :attr:`delta_rn_node` expand them into dense
    length-``n_values`` vectors on demand.
    """

    hyperparams: RetroHyperparameters
    n_values: int
    directed: list[DirectedRelation]
    participation: np.ndarray = field(init=False)
    alpha_vec: np.ndarray = field(init=False)
    beta_vec: np.ndarray = field(init=False)
    gamma_source: list[np.ndarray] = field(init=False)
    delta_ro: list[float] = field(init=False)
    delta_rn_source: list[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        hp = self.hyperparams
        n = self.n_values
        self.participation = participation_counts(self.directed, n)
        denominator = self.participation + 1
        self.alpha_vec = np.full(n, hp.alpha, dtype=np.float64)
        self.beta_vec = hp.beta / denominator

        self.gamma_source = []
        self.delta_ro = []
        self.delta_rn_source = []
        max_participation = int(denominator.max()) if n else 1
        for relation in self.directed:
            sources = relation.source_indices
            gamma = np.zeros(sources.size, dtype=np.float64)
            if hp.gamma > 0 and sources.size:
                gamma = hp.gamma / (relation.out_degree_counts * denominator[sources])
            self.gamma_source.append(gamma)

            # Eq. 13: mr(r) is the maximal |R_i|+1 of any participant of r,
            # mc(r) the maximal column cardinality.
            participants = np.union1d(sources, relation.target_indices)
            if participants.size:
                mr = int(denominator[participants].max())
            else:
                mr = max_participation
            mc = relation.max_cardinality()
            self.delta_ro.append(hp.delta / (mc * mr) if mc * mr else 0.0)

            # Eq. 14 (series solver, centroid interpretation): the subtracted
            # term equals delta/(|R_i|+1) times the centroid of all targets.
            delta_rn = np.zeros(sources.size, dtype=np.float64)
            if hp.delta > 0 and relation.n_targets and sources.size:
                delta_rn = hp.delta / (relation.n_targets * denominator[sources])
            self.delta_rn_source.append(delta_rn)

    def _dense(self, per_source: list[np.ndarray]) -> list[np.ndarray]:
        dense = []
        for relation, values in zip(self.directed, per_source):
            vector = np.zeros(self.n_values, dtype=np.float64)
            vector[relation.source_indices] = values
            dense.append(vector)
        return dense

    @property
    def gamma_node(self) -> list[np.ndarray]:
        """γ^r_i as one dense length-``n_values`` vector per relation.

        Built on every access; the solvers use :attr:`gamma_source`.
        """
        return self._dense(self.gamma_source)

    @property
    def delta_rn_node(self) -> list[np.ndarray]:
        """δ^r_i (RN) as one dense length-``n_values`` vector per relation.

        Built on every access; the solvers use :attr:`delta_rn_source`.
        """
        return self._dense(self.delta_rn_source)

    def gamma_pair_weights(self, relation_index: int) -> np.ndarray:
        """γ weight of every pair of the given directed relation (by pair order)."""
        relation = self.directed[relation_index]
        return self.gamma_source[relation_index][relation.source_positions]


def check_convexity(
    hyperparams: RetroHyperparameters,
    directed: list[DirectedRelation],
    n_values: int,
    weights: "DerivedWeights | None" = None,
) -> tuple[bool, float]:
    """Check the convexity condition of Eq. 7 / Eq. 24.

    Returns ``(is_convex, margin)`` where ``margin`` is
    ``α − max_i 4·Σ_r Σ_{j:(i,j)∈E˜r} δ^r_i`` — non-negative margins mean the
    optimisation objective is convex for this configuration.  Pass the
    already-derived ``weights`` to avoid deriving them a second time.
    """
    if weights is None:
        weights = DerivedWeights(hyperparams, n_values, directed)
    penalty = np.zeros(n_values, dtype=np.float64)
    for relation, delta in zip(directed, weights.delta_ro):
        if delta == 0.0 or not relation.source_indices.size:
            continue
        # |E˜r(i)| = n_targets(r) - od_r(i) for source nodes of r.
        complement = relation.n_targets - relation.out_degree_counts
        np.add.at(penalty, relation.source_indices, 4.0 * delta * complement)
    worst = float(penalty.max()) if n_values else 0.0
    margin = hyperparams.alpha - worst
    return margin >= 0.0, margin
