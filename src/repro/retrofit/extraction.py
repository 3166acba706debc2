"""Extraction of text values, categories and relation groups (paper §3.2/3.3).

The extraction walks the database schema and produces:

* one :class:`TextValueRecord` per *unique* text value per column — the same
  string appearing in two different columns yields two records, repeated
  occurrences within one column yield a single record (§3.3),
* *categorial connections*: for every text column the set of record indices
  belonging to it,
* *relational connections*: one :class:`RelationGroup` per discovered
  relationship (row-wise, PK→FK or many-to-many), holding the index pairs
  ``(i, j)`` that are related.

The module is also the first stage of the incremental delta pipeline: a
row-level :class:`repro.db.DatabaseDelta` is translated into a value-level
:class:`ExtractionDelta` by :func:`derive_extraction_delta` (re-deriving
only the touched tables and relations, never the whole database), and
:meth:`ExtractionResult.apply_delta` folds that delta into an existing
extraction in place, returning the :class:`DeltaMap` every downstream layer
(warm-start retrofitting, serving-index updates, artifact delta records)
uses to carry state across the change.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.db.database import Database, RelationshipSpec
from repro.db.delta import DatabaseDelta
from repro.errors import ExtractionError


@dataclass(frozen=True)
class TextValueRecord:
    """One unique text value within one column.

    ``index`` is the row of this value in the embedding matrices ``W0``/``W``.
    """

    index: int
    text: str
    table: str
    column: str

    @property
    def category(self) -> str:
        """The category (qualified column name) of this record."""
        return _category_name(self.table, self.column)


@functools.lru_cache(maxsize=1024)
def _category_name(table: str, column: str) -> str:
    # one shared string per column rather than a new one per call: serving
    # decorates every hit with its category
    return f"{table}.{column}"


@dataclass
class RelationGroup:
    """A named set of related record-index pairs (one relation group ``Er``)."""

    name: str
    kind: str
    source_category: str
    target_category: str
    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def inverted(self) -> "RelationGroup":
        """The inverted relation group ``Er̄`` (paper §3.2)."""
        return RelationGroup(
            name=f"{self.name}::inverted",
            kind=self.kind,
            source_category=self.target_category,
            target_category=self.source_category,
            pairs=[(j, i) for (i, j) in self.pairs],
        )

    def source_indices(self) -> set[int]:
        """Distinct indices appearing on the source side."""
        return {i for i, _ in self.pairs}

    def target_indices(self) -> set[int]:
        """Distinct indices appearing on the target side."""
        return {j for _, j in self.pairs}


@dataclass
class RelationDelta:
    """Pairs added to / removed from one relation group, as text pairs.

    Pairs are expressed value-level — ``(source_text, target_text)`` — so a
    delta stays meaningful across the index renumbering that happens when
    it is applied.  ``kind``/``source_category``/``target_category`` let
    :meth:`ExtractionResult.apply_delta` create a relation group that did
    not exist before the change.
    """

    name: str
    kind: str
    source_category: str
    target_category: str
    added: list[tuple[str, str]] = field(default_factory=list)
    removed: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class ExtractionDelta:
    """A value-level change set against one :class:`ExtractionResult`.

    ``added_values``/``removed_values`` map categories (qualified column
    names) to the text values entering/leaving them; ``relations`` holds
    one :class:`RelationDelta` per relation group whose pair set changed.
    """

    added_values: dict[str, list[str]] = field(default_factory=dict)
    removed_values: dict[str, list[str]] = field(default_factory=dict)
    relations: list[RelationDelta] = field(default_factory=list)

    def is_empty(self) -> bool:
        """Whether the delta changes nothing at all."""
        return not (
            self.added_values
            or self.removed_values
            or any(rd.added or rd.removed for rd in self.relations)
        )

    def touched_categories(self) -> set[str]:
        """Categories whose membership or relational neighbourhood changed."""
        touched = set(self.added_values) | set(self.removed_values)
        for rd in self.relations:
            if rd.added or rd.removed:
                touched.add(rd.source_category)
                touched.add(rd.target_category)
        return touched

    def summary(self) -> dict[str, int]:
        """Change counts, for logging and benchmark payloads."""
        return {
            "values_added": sum(len(v) for v in self.added_values.values()),
            "values_removed": sum(len(v) for v in self.removed_values.values()),
            "pairs_added": sum(len(rd.added) for rd in self.relations),
            "pairs_removed": sum(len(rd.removed) for rd in self.relations),
        }

    # ------------------------------------------------------------------ #
    # (de)serialisation — used by the store's delta records
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable representation (see :meth:`from_dict`).

        Value maps are stored as ordered ``[category, [texts]]`` pairs, not
        objects: the *order* in which added values are applied defines the
        new record indices, and it must survive ``json.dumps(...,
        sort_keys=True)`` round-trips (the store's delta records replay it).
        """
        return {
            "added_values": [
                [c, list(v)] for c, v in self.added_values.items()
            ],
            "removed_values": [
                [c, list(v)] for c, v in self.removed_values.items()
            ],
            "relations": [
                {
                    "name": rd.name,
                    "kind": rd.kind,
                    "source_category": rd.source_category,
                    "target_category": rd.target_category,
                    "added": [[s, t] for s, t in rd.added],
                    "removed": [[s, t] for s, t in rd.removed],
                }
                for rd in self.relations
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ExtractionDelta":
        """Rebuild a delta from :meth:`to_dict` output."""
        def value_pairs(entry) -> dict[str, list[str]]:
            pairs = entry.items() if isinstance(entry, dict) else entry
            return {str(c): [str(t) for t in v] for c, v in pairs}

        try:
            return cls(
                added_values=value_pairs(payload.get("added_values", [])),
                removed_values=value_pairs(payload.get("removed_values", [])),
                relations=[
                    RelationDelta(
                        name=str(rd["name"]),
                        kind=str(rd["kind"]),
                        source_category=str(rd["source_category"]),
                        target_category=str(rd["target_category"]),
                        added=[(str(s), str(t)) for s, t in rd.get("added", [])],
                        removed=[(str(s), str(t)) for s, t in rd.get("removed", [])],
                    )
                    for rd in payload.get("relations", [])
                ],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ExtractionError(f"malformed extraction delta: {error}") from error


@dataclass
class DeltaMap:
    """How record indices moved when a delta was applied.

    ``old_to_new[i]`` is the new index of old record ``i`` (``-1`` when the
    record was removed); ``added_indices`` are brand-new records in the new
    indexing, ``removed_indices`` the dropped ones in the old indexing.
    ``added_pairs`` maps each relation group to the ``(k, 2)`` index pairs
    the delta inserted into it; only a delta that removes nothing records
    them (``None`` otherwise).
    """

    old_to_new: np.ndarray
    added_indices: list[int]
    removed_indices: list[int]
    added_pairs: dict[str, np.ndarray] | None = None

    @property
    def n_added(self) -> int:
        """Number of records the delta created."""
        return len(self.added_indices)

    @property
    def n_removed(self) -> int:
        """Number of records the delta dropped."""
        return len(self.removed_indices)

    def surviving_old_indices(self) -> np.ndarray:
        """Old indices of records that survived the delta, ascending."""
        return np.nonzero(self.old_to_new >= 0)[0]


@dataclass
class ExtractionResult:
    """Everything RETRO needs to know about the text content of a database."""

    records: list[TextValueRecord]
    categories: dict[str, list[int]]
    relation_groups: list[RelationGroup]

    def __post_init__(self) -> None:
        self._index: dict[tuple[str, str], int] = {
            (record.category, record.text): record.index for record in self.records
        }

    def __len__(self) -> int:
        return len(self.records)

    @property
    def texts(self) -> list[str]:
        """The raw text of every record, in index order."""
        return [record.text for record in self.records]

    def index_of(self, category: str, text: str) -> int:
        """Record index of ``text`` within ``category`` (``table.column``)."""
        key = (category, text)
        if key not in self._index:
            raise ExtractionError(f"no record for {text!r} in category {category!r}")
        return self._index[key]

    def has_value(self, category: str, text: str) -> bool:
        """Whether a record exists for ``text`` within ``category``."""
        return (category, text) in self._index

    def records_of_category(self, category: str) -> list[TextValueRecord]:
        """All records of one category, in index order."""
        if category not in self.categories:
            raise ExtractionError(f"unknown category {category!r}")
        return [self.records[i] for i in self.categories[category]]

    def relation_group(self, name: str) -> RelationGroup:
        """Look up a relation group by its full name."""
        for group in self.relation_groups:
            if group.name == name:
                return group
        raise ExtractionError(f"unknown relation group {name!r}")

    def relation_count(self) -> int:
        """Total number of relation pairs across all groups."""
        return sum(len(group) for group in self.relation_groups)

    def relation_groups_of(self, index: int) -> list[RelationGroup]:
        """Relation groups in which record ``index`` participates (either side)."""
        groups = []
        for group in self.relation_groups:
            for i, j in group.pairs:
                if i == index or j == index:
                    groups.append(group)
                    break
        return groups

    def _apply_append_only(self, delta: ExtractionDelta) -> DeltaMap:
        """The pure-growth fast path of :meth:`apply_delta`.

        Nothing is removed, so no record renumbers: new records append at
        the end, untouched relation groups are left alone entirely, and
        the value index grows in place.  All validation happens before
        the first mutation, so a malformed delta leaves the extraction
        exactly as it was.
        """
        n_before = len(self.records)
        planned: dict[tuple[str, str], int] = {}
        for category, texts in delta.added_values.items():
            if "." not in category:
                raise ExtractionError(
                    f"category {category!r} is not a qualified table.column name"
                )
            for text in texts:
                key = (category, str(text))
                if key in self._index or key in planned:
                    raise ExtractionError(
                        f"delta adds {text!r} to {category!r} but the value "
                        "already exists"
                    )
                planned[key] = n_before + len(planned)

        def resolve(category: str, text: str, relation: str) -> int:
            key = (category, str(text))
            if key in planned:
                return planned[key]
            if key not in self._index:
                raise ExtractionError(
                    f"relation delta {relation!r} references {text!r} in "
                    f"{category!r}, which is not part of the extraction"
                )
            return self._index[key]

        for rd in delta.relations:
            for source_text, target_text in rd.added:
                resolve(rd.source_category, source_text, rd.name)
                resolve(rd.target_category, target_text, rd.name)

        # validation complete — commit
        added_indices: list[int] = []
        for category, texts in delta.added_values.items():
            table, column = category.split(".", 1)
            members = self.categories.setdefault(category, [])
            for text in texts:
                text = str(text)
                index = len(self.records)
                self.records.append(
                    TextValueRecord(index=index, text=text, table=table, column=column)
                )
                self._index[(category, text)] = index
                members.append(index)
                added_indices.append(index)

        groups_by_name = {group.name: group for group in self.relation_groups}
        added_pairs: dict[str, np.ndarray] = {}
        for relation_delta in delta.relations:
            if not relation_delta.added:
                continue
            group = groups_by_name.get(relation_delta.name)
            if group is None:
                group = RelationGroup(
                    name=relation_delta.name,
                    kind=relation_delta.kind,
                    source_category=relation_delta.source_category,
                    target_category=relation_delta.target_category,
                    pairs=[],
                )
                self.relation_groups.append(group)
                groups_by_name[relation_delta.name] = group
            fresh = sorted({
                (
                    resolve(group.source_category, s, group.name),
                    resolve(group.target_category, t, group.name),
                )
                for s, t in relation_delta.added
            })
            # the pairs stay sorted: each new one goes in at its bisected position
            inserted = []
            for pair in fresh:
                at = bisect_left(group.pairs, pair)
                if at == len(group.pairs) or group.pairs[at] != pair:
                    group.pairs.insert(at, pair)
                    inserted.append(pair)
            if inserted:
                added_pairs[group.name] = np.asarray(inserted, dtype=np.int64)
        return DeltaMap(
            old_to_new=np.arange(n_before, dtype=np.int64),
            added_indices=added_indices,
            removed_indices=[],
            added_pairs=added_pairs,
        )

    def copy(self) -> "ExtractionResult":
        """An independent copy (records are immutable and shared).

        Applying a delta mutates the extraction in place; embedding sets
        built over the pre-delta state keep their own copy so they stay
        internally consistent.  The value index is copied, not rebuilt.
        """
        copied = object.__new__(ExtractionResult)
        copied.records = list(self.records)
        copied.categories = {
            category: list(indices) for category, indices in self.categories.items()
        }
        copied.relation_groups = [
            RelationGroup(
                name=group.name,
                kind=group.kind,
                source_category=group.source_category,
                target_category=group.target_category,
                pairs=list(group.pairs),
            )
            for group in self.relation_groups
        ]
        copied._index = dict(self._index)
        return copied

    def apply_delta(self, delta: ExtractionDelta) -> DeltaMap:
        """Fold a value-level delta into this extraction, in place.

        Surviving records are renumbered compactly (category order is
        preserved), added values are appended per category, relation pairs
        are remapped — pairs touching a removed value are dropped
        automatically.  Returns the :class:`DeltaMap` describing how
        indices moved, which downstream layers use to carry embedding rows
        and index state across the change.
        """
        old_records = self.records
        removed_old: set[int] = set()
        for category, texts in delta.removed_values.items():
            for text in texts:
                removed_old.add(self.index_of(category, str(text)))
        if not removed_old and not any(rd.removed for rd in delta.relations):
            return self._apply_append_only(delta)

        old_to_new = np.full(len(old_records), -1, dtype=np.int64)
        new_records: list[TextValueRecord] = []
        for record in old_records:
            if record.index in removed_old:
                continue
            new_index = len(new_records)
            old_to_new[record.index] = new_index
            if new_index == record.index:
                new_records.append(record)
            else:
                new_records.append(
                    TextValueRecord(
                        index=new_index,
                        text=record.text,
                        table=record.table,
                        column=record.column,
                    )
                )

        added_indices: list[int] = []
        added_by_category: dict[str, list[int]] = {}
        seen_new: set[tuple[str, str]] = {
            (record.category, record.text) for record in new_records
        }
        for category, texts in delta.added_values.items():
            if "." not in category:
                raise ExtractionError(
                    f"category {category!r} is not a qualified table.column name"
                )
            table, column = category.split(".", 1)
            for text in texts:
                text = str(text)
                if (category, text) in seen_new:
                    raise ExtractionError(
                        f"delta adds {text!r} to {category!r} but the value "
                        "already exists"
                    )
                index = len(new_records)
                new_records.append(
                    TextValueRecord(index=index, text=text, table=table, column=column)
                )
                seen_new.add((category, text))
                added_indices.append(index)
                added_by_category.setdefault(category, []).append(index)

        new_categories: dict[str, list[int]] = {}
        for category, indices in self.categories.items():
            survivors = [
                int(old_to_new[i]) for i in indices if old_to_new[i] >= 0
            ]
            new_categories[category] = survivors + added_by_category.pop(category, [])
        for category, indices in added_by_category.items():
            new_categories[category] = indices

        lookup = {
            (record.category, record.text): record.index for record in new_records
        }

        def resolve(category: str, text: str, relation: str) -> int:
            key = (category, str(text))
            if key not in lookup:
                raise ExtractionError(
                    f"relation delta {relation!r} references {text!r} in "
                    f"{category!r}, which is not part of the extraction"
                )
            return lookup[key]

        deltas_by_name = {rd.name: rd for rd in delta.relations}
        new_groups: list[RelationGroup] = []
        for group in self.relation_groups:
            relation_delta = deltas_by_name.pop(group.name, None)
            removed_pairs: set[tuple[str, str]] = set()
            if relation_delta is not None:
                removed_pairs = {
                    (str(s), str(t)) for s, t in relation_delta.removed
                }
            pairs: set[tuple[int, int]] = set()
            for i, j in group.pairs:
                new_i, new_j = int(old_to_new[i]), int(old_to_new[j])
                if new_i < 0 or new_j < 0:
                    continue
                if (old_records[i].text, old_records[j].text) in removed_pairs:
                    continue
                pairs.add((new_i, new_j))
            if relation_delta is not None:
                for source_text, target_text in relation_delta.added:
                    pairs.add((
                        resolve(group.source_category, source_text, group.name),
                        resolve(group.target_category, target_text, group.name),
                    ))
            new_groups.append(
                RelationGroup(
                    name=group.name,
                    kind=group.kind,
                    source_category=group.source_category,
                    target_category=group.target_category,
                    pairs=sorted(pairs),
                )
            )
        for relation_delta in delta.relations:
            if relation_delta.name not in deltas_by_name:
                continue  # folded into an existing group above
            pairs = {
                (
                    resolve(
                        relation_delta.source_category, s, relation_delta.name
                    ),
                    resolve(
                        relation_delta.target_category, t, relation_delta.name
                    ),
                )
                for s, t in relation_delta.added
            }
            if not pairs:
                continue
            new_groups.append(
                RelationGroup(
                    name=relation_delta.name,
                    kind=relation_delta.kind,
                    source_category=relation_delta.source_category,
                    target_category=relation_delta.target_category,
                    pairs=sorted(pairs),
                )
            )

        self.records = new_records
        self.categories = new_categories
        self.relation_groups = new_groups
        self._index = {
            (record.category, record.text): record.index for record in new_records
        }
        return DeltaMap(
            old_to_new=old_to_new,
            added_indices=added_indices,
            removed_indices=sorted(removed_old),
        )


def extract_text_values(
    database: Database,
    exclude_columns: Iterable[str] = (),
    exclude_relations: Iterable[str] = (),
    min_relation_pairs: int = 1,
) -> ExtractionResult:
    """Extract records, categories and relation groups from ``database``.

    Parameters
    ----------
    database:
        The relational database to process.
    exclude_columns:
        Qualified column names (``table.column``) whose values must *not*
        receive embeddings (used e.g. when the column is the prediction
        target of an imputation experiment).
    exclude_relations:
        Relation-group names (see :attr:`RelationshipSpec.name`) to skip,
        used e.g. for the link-prediction experiment which hides the
        movie→genre relation during training.
    min_relation_pairs:
        Relation groups with fewer pairs than this are dropped.
    """
    excluded_columns = set(exclude_columns)
    excluded_relations = set(exclude_relations)

    records: list[TextValueRecord] = []
    categories: dict[str, list[int]] = {}
    index_lookup: dict[tuple[str, str], int] = {}

    for ref in database.text_columns():
        category = str(ref)
        if category in excluded_columns:
            continue
        table = database.table(ref.table)
        indices: list[int] = []
        for value in table.distinct_values(ref.column):
            text = str(value)
            key = (category, text)
            if key in index_lookup:
                continue
            index = len(records)
            records.append(
                TextValueRecord(index=index, text=text, table=ref.table, column=ref.column)
            )
            index_lookup[key] = index
            indices.append(index)
        categories[category] = indices

    relation_groups: list[RelationGroup] = []
    for spec in database.relationships():
        if spec.name in excluded_relations:
            continue
        source_cat, target_cat = str(spec.source), str(spec.target)
        if source_cat in excluded_columns or target_cat in excluded_columns:
            continue
        pairs = _materialise_pairs(database, spec, index_lookup)
        if len(pairs) < min_relation_pairs:
            continue
        relation_groups.append(
            RelationGroup(
                name=spec.name,
                kind=spec.kind,
                source_category=source_cat,
                target_category=target_cat,
                pairs=sorted(pairs),
            )
        )

    return ExtractionResult(
        records=records,
        categories=categories,
        relation_groups=relation_groups,
    )


def _materialise_text_pairs(
    database: Database, spec: RelationshipSpec
) -> set[tuple[str, str]]:
    """Turn a schema-level relationship into concrete ``(text, text)`` pairs."""
    pairs: set[tuple[str, str]] = set()

    if spec.kind == "row":
        table = database.table(spec.source.table)
        for row in table:
            source, target = row.get(spec.source.column), row.get(spec.target.column)
            if source is not None and target is not None:
                pairs.add((str(source), str(target)))
        return pairs

    if spec.kind == "fk":
        if spec.fk_column is None:
            raise ExtractionError(f"fk relationship {spec.name} lacks fk_column")
        source_table = database.table(spec.source.table)
        target_table = database.table(spec.target.table)
        fk = source_table.schema.foreign_key_for(spec.fk_column)
        if fk is None:
            raise ExtractionError(
                f"no foreign key on {spec.source.table}.{spec.fk_column}"
            )
        # key -> referenced text, built once (first match wins for non-pk
        # reference columns, mirroring the historical row-by-row lookup)
        ref_text: dict[object, object] = {}
        for ref_row in target_table:
            key = ref_row.get(fk.ref_column)
            if key is not None and key not in ref_text:
                ref_text[key] = ref_row.get(spec.target.column)
        for row in source_table:
            key = row.get(spec.fk_column)
            if key is None:
                continue
            source = row.get(spec.source.column)
            target = ref_text.get(key)
            if source is not None and target is not None:
                pairs.add((str(source), str(target)))
        return pairs

    if spec.kind == "m2m":
        if spec.via is None or spec.via_source_fk is None or spec.via_target_fk is None:
            raise ExtractionError(f"m2m relationship {spec.name} lacks link metadata")
        link = database.table(spec.via)
        source_table = database.table(spec.source.table)
        target_table = database.table(spec.target.table)
        source_pk = source_table.schema.primary_key
        target_pk = target_table.schema.primary_key
        source_text = {
            row[source_pk]: row.get(spec.source.column) for row in source_table
        }
        target_text = {
            row[target_pk]: row.get(spec.target.column) for row in target_table
        }
        for row in link:
            source = source_text.get(row.get(spec.via_source_fk))
            target = target_text.get(row.get(spec.via_target_fk))
            if source is not None and target is not None:
                pairs.add((str(source), str(target)))
        return pairs

    raise ExtractionError(f"unknown relationship kind {spec.kind!r}")


def _materialise_pairs(
    database: Database,
    spec: RelationshipSpec,
    index_lookup: dict[tuple[str, str], int],
) -> set[tuple[int, int]]:
    """Turn a schema-level relationship into concrete record-index pairs."""
    source_cat, target_cat = str(spec.source), str(spec.target)
    pairs: set[tuple[int, int]] = set()
    for source_text, target_text in _materialise_text_pairs(database, spec):
        i = index_lookup.get((source_cat, source_text))
        j = index_lookup.get((target_cat, target_text))
        if i is not None and j is not None:
            pairs.add((i, j))
    return pairs


def _delta_insert_pairs(
    database: Database,
    spec: RelationshipSpec,
    inserted: dict[str, list[dict]],
) -> set[tuple[str, str]]:
    """Pairs of ``spec`` arising from freshly inserted rows only.

    Valid exactly when the spec's tables saw nothing but inserts: a pair
    involving a pre-existing row and a new row can only materialise
    through a row the delta inserted (foreign keys cannot have referenced
    a row before it existed), so scanning the inserted rows is complete.
    """
    pairs: set[tuple[str, str]] = set()
    if spec.kind == "row":
        for row in inserted.get(spec.source.table, ()):
            source = row.get(spec.source.column)
            target = row.get(spec.target.column)
            if source is not None and target is not None:
                pairs.add((str(source), str(target)))
        return pairs

    if spec.kind == "fk":
        rows = inserted.get(spec.source.table, ())
        if not rows:
            return pairs
        source_table = database.table(spec.source.table)
        target_table = database.table(spec.target.table)
        fk = source_table.schema.foreign_key_for(spec.fk_column)
        if fk is None:
            raise ExtractionError(
                f"no foreign key on {spec.source.table}.{spec.fk_column}"
            )
        use_pk = target_table.schema.primary_key == fk.ref_column
        ref_text: dict[object, object] | None = None
        for row in rows:
            key = row.get(spec.fk_column)
            if key is None:
                continue
            if use_pk:
                ref_row = target_table.get_by_key(key)
                target = None if ref_row is None else ref_row.get(spec.target.column)
            else:
                if ref_text is None:
                    ref_text = {}
                    for ref_row in target_table:
                        ref_key = ref_row.get(fk.ref_column)
                        if ref_key is not None and ref_key not in ref_text:
                            ref_text[ref_key] = ref_row.get(spec.target.column)
                target = ref_text.get(key)
            source = row.get(spec.source.column)
            if source is not None and target is not None:
                pairs.add((str(source), str(target)))
        return pairs

    if spec.kind == "m2m":
        rows = inserted.get(spec.via, ())
        if not rows:
            return pairs
        source_table = database.table(spec.source.table)
        target_table = database.table(spec.target.table)
        for row in rows:
            src_row = source_table.get_by_key(row.get(spec.via_source_fk))
            dst_row = target_table.get_by_key(row.get(spec.via_target_fk))
            if src_row is None or dst_row is None:
                continue
            source = src_row.get(spec.source.column)
            target = dst_row.get(spec.target.column)
            if source is not None and target is not None:
                pairs.add((str(source), str(target)))
        return pairs

    raise ExtractionError(f"unknown relationship kind {spec.kind!r}")


def _spec_relevant_columns(
    database: Database, spec: RelationshipSpec
) -> set[tuple[str, str]]:
    """The ``(table, column)`` pairs whose updates can change a spec's pairs."""
    relevant = {
        (spec.source.table, spec.source.column),
        (spec.target.table, spec.target.column),
    }
    if spec.kind == "fk" and spec.fk_column is not None:
        relevant.add((spec.source.table, spec.fk_column))
        fk = database.table(spec.source.table).schema.foreign_key_for(spec.fk_column)
        if fk is not None:
            relevant.add((spec.target.table, fk.ref_column))
    if spec.kind == "m2m" and spec.via is not None:
        relevant.add((spec.via, spec.via_source_fk))
        relevant.add((spec.via, spec.via_target_fk))
    return relevant


def _has_pair(
    extraction: ExtractionResult,
    group: RelationGroup | None,
    source_category: str,
    target_category: str,
    pair: tuple[str, str],
) -> bool:
    """Whether ``group`` already holds the text pair ``pair``: resolve both
    ends to indices and bisect the sorted pairs."""
    if group is None:
        return False
    index = extraction._index
    source = index.get((source_category, pair[0]))
    target = index.get((target_category, pair[1]))
    if source is None or target is None:
        return False
    at = bisect_left(group.pairs, (source, target))
    return at < len(group.pairs) and group.pairs[at] == (source, target)


def derive_extraction_delta(
    extraction: ExtractionResult,
    database: Database,
    delta: DatabaseDelta,
    exclude_columns: Iterable[str] = (),
    exclude_relations: Iterable[str] = (),
    min_relation_pairs: int = 1,
) -> ExtractionDelta:
    """The value-level delta between ``extraction`` and the updated database.

    ``database`` must already reflect the applied :class:`DatabaseDelta`.
    Only tables the delta touched (and relations involving them) are
    re-derived, and a relation whose tables saw nothing but inserts is
    diffed from the inserted rows alone (see :func:`_delta_insert_pairs`)
    instead of re-scanned — the cost scales with the delta, not with the
    database.  The exclusion arguments must match the ones the original
    extraction was built with.
    """
    excluded_columns = set(exclude_columns)
    excluded_relations = set(exclude_relations)
    touched = delta.touched_tables()

    inserted_stored: dict[str, list[dict]] = {}
    for op in delta.inserts:
        table = database.table(op.table)
        pk = table.schema.primary_key
        stored = None
        if pk is not None and op.row.get(pk) is not None:
            stored = table.get_by_key(op.row[pk])
        inserted_stored.setdefault(op.table, []).append(
            stored if stored is not None else dict(op.row)
        )
    deleted_tables = {op.table for op in delta.deletes}
    updated_columns = {
        (op.table, column) for op in delta.updates for column in op.changes
    }
    updated_tables = {op.table for op in delta.updates}

    added_values: dict[str, list[str]] = {}
    removed_values: dict[str, list[str]] = {}
    for ref in database.text_columns():
        if ref.table not in touched:
            continue
        if (
            ref.table not in inserted_stored
            and ref.table not in deleted_tables
            and (ref.table, ref.column) not in updated_columns
        ):
            continue  # only irrelevant columns of this table were updated
        category = str(ref)
        if category in excluded_columns:
            continue
        if (
            ref.table not in deleted_tables
            and (ref.table, ref.column) not in updated_columns
        ):
            # insert-only column: values can only be added, and every new
            # one sits in an inserted row — no table scan needed
            seen: set[str] = set()
            added = []
            for row in inserted_stored.get(ref.table, ()):
                value = row.get(ref.column)
                if value is None:
                    continue
                text = str(value)
                if text in seen or extraction.has_value(category, text):
                    continue
                seen.add(text)
                added.append(text)
            added.sort()
            removed = []
        else:
            current = {
                str(value)
                for value in database.table(ref.table).distinct_values(ref.column)
            }
            previous = {
                extraction.records[i].text
                for i in extraction.categories.get(category, ())
            }
            added = sorted(current - previous)
            removed = sorted(previous - current)
        if added:
            added_values[category] = added
        if removed:
            removed_values[category] = removed

    existing_groups = {group.name: group for group in extraction.relation_groups}
    relations: list[RelationDelta] = []
    for spec in database.relationships():
        if spec.name in excluded_relations:
            continue
        source_cat, target_cat = str(spec.source), str(spec.target)
        if source_cat in excluded_columns or target_cat in excluded_columns:
            continue
        spec_tables = {spec.source.table, spec.target.table}
        if spec.via is not None:
            spec_tables.add(spec.via)
        if not spec_tables & touched:
            continue
        group = existing_groups.get(spec.name)
        needs_rescan = bool(spec_tables & deleted_tables) or bool(
            _spec_relevant_columns(database, spec) & updated_columns
        )
        if needs_rescan:
            previous_pairs: set[tuple[str, str]] = set()
            if group is not None:
                previous_pairs = {
                    (extraction.records[i].text, extraction.records[j].text)
                    for i, j in group.pairs
                }
            current_pairs = _materialise_text_pairs(database, spec)
            if group is None and len(current_pairs) < min_relation_pairs:
                continue  # was dropped at extraction time and stays too small
            added_pairs = sorted(current_pairs - previous_pairs)
            removed_pairs = sorted(previous_pairs - current_pairs)
        else:
            if not spec_tables & (set(inserted_stored) | updated_tables):
                continue
            candidate = _delta_insert_pairs(database, spec, inserted_stored)
            if group is None and len(candidate) < min_relation_pairs:
                continue
            added_pairs = sorted(
                pair for pair in candidate
                if not _has_pair(extraction, group, source_cat, target_cat, pair)
            )
            removed_pairs = []
        if added_pairs or removed_pairs:
            relations.append(
                RelationDelta(
                    name=spec.name,
                    kind=spec.kind,
                    source_category=source_cat,
                    target_category=target_cat,
                    added=added_pairs,
                    removed=removed_pairs,
                )
            )

    return ExtractionDelta(
        added_values=added_values,
        removed_values=removed_values,
        relations=relations,
    )
