"""In-memory relational instances.

A :class:`Relation` is an immutable, named bag of row tuples over a
:class:`~repro.relational.schema.RelationSchema`.  It is the substrate on
which both the baseline FD-discovery algorithms and InFine operate.

The class deliberately stays close to the formal model used in the paper:
rows are plain Python tuples, ``NULL`` is represented by :data:`NULL`
(``None``), and duplicate rows are allowed (bag semantics) because SPJ views
can produce them.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .backend import MarkTableCache, active_state, get_backend
from .schema import Attribute, RelationSchema, SchemaError

#: The NULL marker used throughout the substrate.
NULL = None


class RelationError(ValueError):
    """Raised for malformed relations or invalid row shapes."""


class Relation:
    """An immutable relational instance (bag of tuples).

    Parameters
    ----------
    name:
        A human-readable relation name, used in provenance sub-query strings.
    schema:
        The relation schema, or an iterable of attribute names.
    rows:
        An iterable of row tuples/sequences; each must have exactly one value
        per schema attribute.
    """

    __slots__ = (
        "_name",
        "_schema",
        "_rows",
        "_column_index_cache",
        "_column_codes_cache",
        "_content_hash_cache",
        "_mark_cache",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        schema: RelationSchema | Sequence[Attribute | str],
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        width = len(schema)
        materialised: list[tuple[Any, ...]] = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != width:
                raise RelationError(
                    f"row {i} of relation {name!r} has {len(row)} values, "
                    f"schema expects {width}"
                )
            materialised.append(row)
        self._name = name
        self._schema = schema
        self._rows: tuple[tuple[Any, ...], ...] = tuple(materialised)
        self._column_index_cache: dict[str, dict[Hashable, list[int]]] = {}
        self._column_codes_cache: dict[str, tuple[array, int, list[int]]] = {}
        self._content_hash_cache: str | None = None
        # Explicit mark-cache override (tests / embedders); ``None`` means
        # "use the active engine state's relation-scoped cache".
        self._mark_cache: MarkTableCache | None = None

    # -- basic protocol -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema names and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema.names == other.schema.names
            and Counter(self._rows) == Counter(other._rows)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self._schema.names, frozenset(Counter(self._rows).items())))

    def __repr__(self) -> str:
        return f"Relation({self._name!r}, attrs={list(self.attribute_names)}, rows={len(self)})"

    # -- accessors ------------------------------------------------------------
    @property
    def name(self) -> str:
        """The relation name."""
        return self._name

    @property
    def schema(self) -> RelationSchema:
        """The relation schema."""
        return self._schema

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return self._schema.names

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """The raw row tuples."""
        return self._rows

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._schema)

    def is_empty(self) -> bool:
        """Whether the relation holds no rows."""
        return not self._rows

    def column(self, attribute: str) -> list[Any]:
        """Return the values of ``attribute`` for every row, in row order."""
        idx = self._schema.index_of(attribute)
        return [row[idx] for row in self._rows]

    def columns(self, attributes: Sequence[str]) -> list[tuple[Any, ...]]:
        """Return, per row, the tuple of values for ``attributes``."""
        idxs = self._schema.indexes_of(attributes)
        return [tuple(row[i] for i in idxs) for row in self._rows]

    def row_dicts(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as ``{attribute: value}`` dictionaries."""
        names = self.attribute_names
        for row in self._rows:
            yield dict(zip(names, row))

    def distinct_count(self, attributes: Sequence[str] | str) -> int:
        """Number of distinct value combinations over ``attributes``.

        NULLs participate as ordinary values, which matches the paper's
        null-semantics-agnostic FD definition (Definition 1).
        """
        if isinstance(attributes, str):
            attributes = (attributes,)
        if not attributes:
            return 1 if self._rows else 0
        return len(set(self.columns(attributes)))

    def value_index(self, attribute: str) -> Mapping[Hashable, list[int]]:
        """Return (and cache) a value -> row-position index for ``attribute``."""
        cached = self._column_index_cache.get(attribute)
        if cached is not None:
            return cached
        idx = self._schema.index_of(attribute)
        index: dict[Hashable, list[int]] = defaultdict(list)
        for position, row in enumerate(self._rows):
            index[row[idx]].append(position)
        index = dict(index)
        self._column_index_cache[attribute] = index
        return index

    def multi_value_index(self, attributes: Sequence[str]) -> dict[tuple[Any, ...], list[int]]:
        """Return a (value tuple) -> row-position index over several attributes."""
        idxs = self._schema.indexes_of(attributes)
        index: dict[tuple[Any, ...], list[int]] = defaultdict(list)
        for position, row in enumerate(self._rows):
            index[tuple(row[i] for i in idxs)].append(position)
        return dict(index)

    # -- columnar integer encoding --------------------------------------------
    def column_codes(self, attribute: str) -> tuple[array, int]:
        """Return ``(codes, n_codes)``: the dense integer encoding of a column.

        ``codes`` is an ``array('q')`` with one entry per row; equal raw
        values receive equal codes, codes are dense in ``0..n_codes-1`` and
        assigned in first-appearance order.  The encoding is computed lazily,
        cached for the lifetime of the (immutable) relation, and shared by
        every partition/FD primitive so that the hot paths compare machine
        integers instead of hashing arbitrary Python objects.  ``NULL``
        participates as an ordinary value (the paper's null-agnostic FD
        semantics).
        """
        return self._encode_column(attribute)[:2]

    def _encode_column(self, attribute: str) -> tuple[array, int, list[int]]:
        """``(codes, n_codes, counts)`` with per-code occurrence counts.

        Internal variant of :meth:`column_codes` whose counts let the
        partition kernel skip its counting pass; both share one cache entry.
        """
        cached = self._column_codes_cache.get(attribute)
        if cached is not None:
            return cached
        idx = self._schema.index_of(attribute)
        code_of: dict[Hashable, int] = {}
        lookup = code_of.get
        counts: list[int] = []
        raw: list[int] = []
        append = raw.append
        for row in self._rows:
            value = row[idx]
            code = lookup(value)
            if code is None:
                code = len(code_of)
                code_of[value] = code
                counts.append(1)
            else:
                counts[code] += 1
            append(code)
        encoded = (array("q", raw), len(code_of), counts)
        self._column_codes_cache[attribute] = encoded
        return encoded

    def content_hash(self) -> str:
        """The canonical content address of this relation (sha256 hexdigest).

        A merkle fold of per-column sha256 leaves over the dictionary
        encoding of :meth:`column_codes` plus the schema — backend- and
        process-independent (see :mod:`repro.registry.hashing`).  Computed
        lazily and cached for the lifetime of the (immutable) relation.
        """
        cached = self._content_hash_cache
        if cached is None:
            # Imported lazily: the registry package depends on this module.
            from ..registry.hashing import relation_content_hash

            cached = self._content_hash_cache = relation_content_hash(self)
        return cached

    def column_code_count(self, attribute: str) -> int:
        """Number of distinct values of ``attribute`` (via the cached encoding)."""
        return self.column_codes(attribute)[1]

    def combined_column_codes(self, attributes: Sequence[str]) -> tuple[Sequence[int], int]:
        """Dense integer codes of the value *combinations* over ``attributes``.

        Folds the per-column encodings with a mixed-radix product through the
        active partition backend, re-densifying after every column (in
        first-appearance order, identically on every backend) so
        intermediate keys stay bounded by ``n_rows * n_codes``.  Returns
        ``(codes, n_codes)`` like :meth:`column_codes`.
        """
        if not attributes:
            raise RelationError("combined_column_codes needs at least one attribute")
        backend = get_backend(len(self._rows))
        codes, width = self.column_codes(attributes[0])
        combined = backend.initial_codes(codes)
        for attribute in attributes[1:]:
            nxt, radix = self.column_codes(attribute)
            combined, width = backend.combine_codes(combined, width, nxt, radix)
        return combined, width

    @property
    def mark_cache(self) -> MarkTableCache:
        """The relation-scoped byte-budgeted mark-table cache.

        Owned by the active engine state (each session has its own budgeted
        instance per relation); an explicitly assigned cache
        (``relation._mark_cache = MarkTableCache(...)``) overrides it.
        """
        cache = self._mark_cache
        if cache is None:
            return active_state().caches_for(self).marks
        return cache

    # -- derivations ----------------------------------------------------------
    def with_name(self, name: str) -> "Relation":
        """Return the same instance under a different relation name."""
        return Relation(name, self._schema, self._rows)

    def with_rows(self, rows: Iterable[Sequence[Any]], name: str | None = None) -> "Relation":
        """Return a relation with the same schema but different rows."""
        return Relation(name or self._name, self._schema, rows)

    def take(self, positions: Sequence[int], name: str | None = None) -> "Relation":
        """Return a relation containing the rows at the given positions."""
        rows = [self._rows[p] for p in positions]
        return Relation(name or self._name, self._schema, rows)

    def head(self, n: int) -> "Relation":
        """Return the first ``n`` rows (useful for debugging and examples)."""
        return Relation(self._name, self._schema, self._rows[:n])

    def distinct(self, name: str | None = None) -> "Relation":
        """Return the relation with duplicate rows removed (set semantics)."""
        seen: set[tuple[Any, ...]] = set()
        rows: list[tuple[Any, ...]] = []
        for row in self._rows:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Relation(name or self._name, self._schema, rows)

    def sorted_rows(self) -> list[tuple[Any, ...]]:
        """Rows sorted with a NULL-safe key, for deterministic display."""
        return sorted(self._rows, key=lambda row: tuple((v is None, str(v)) for v in row))

    def map_column(self, attribute: str, fn: Callable[[Any], Any]) -> "Relation":
        """Return a relation with ``fn`` applied to every value of ``attribute``."""
        idx = self._schema.index_of(attribute)
        rows = [row[:idx] + (fn(row[idx]),) + row[idx + 1 :] for row in self._rows]
        return Relation(self._name, self._schema, rows)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        name: str,
        records: Sequence[Mapping[str, Any]],
        schema: RelationSchema | Sequence[str] | None = None,
    ) -> "Relation":
        """Build a relation from a list of dictionaries.

        If ``schema`` is omitted the attribute order of the first record is
        used; every record must then provide exactly the same keys.
        """
        if schema is None:
            if not records:
                raise RelationError("cannot infer a schema from an empty record list")
            schema = RelationSchema(list(records[0].keys()))
        elif not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        names = schema.names
        rows = []
        for i, record in enumerate(records):
            missing = set(names) - set(record)
            if missing:
                raise RelationError(f"record {i} is missing attributes {sorted(missing)}")
            rows.append(tuple(record[n] for n in names))
        return cls(name, schema, rows)

    @classmethod
    def from_columns(cls, name: str, columns: Mapping[str, Sequence[Any]]) -> "Relation":
        """Build a relation from a column-name -> values mapping."""
        if not columns:
            raise RelationError("cannot build a relation from an empty column mapping")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise RelationError(f"columns have inconsistent lengths: {sorted(lengths)}")
        schema = RelationSchema(list(columns.keys()))
        rows = list(zip(*columns.values()))
        return cls(name, schema, rows)

    @classmethod
    def empty(cls, name: str, schema: RelationSchema | Sequence[str]) -> "Relation":
        """An empty relation over ``schema``."""
        return cls(name, schema, [])

    # -- pretty printing ------------------------------------------------------
    def to_text(self, limit: int = 20) -> str:
        """Render the relation as an ASCII table (truncated to ``limit`` rows)."""
        names = self.attribute_names
        shown = [tuple("NULL" if v is None else str(v) for v in row) for row in self._rows[:limit]]
        widths = [len(n) for n in names]
        for row in shown:
            for i, value in enumerate(row):
                widths[i] = max(widths[i], len(value))
        header = " | ".join(n.ljust(widths[i]) for i, n in enumerate(names))
        separator = "-+-".join("-" * w for w in widths)
        lines = [header, separator]
        for row in shown:
            lines.append(" | ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)


def validate_same_schema(left: Relation, right: Relation) -> None:
    """Raise :class:`SchemaError` unless both relations share attribute names."""
    if left.schema.names != right.schema.names:
        raise SchemaError(
            f"relations {left.name!r} and {right.name!r} have different schemas: "
            f"{left.schema.names} vs {right.schema.names}"
        )
