"""Equivalence and subsystem tests for the pluggable partition backends.

The numpy fast path must be *bit-compatible* with the pure-python kernel:
identical flat arrays (group order, positions order), identical dense code
assignment, identical verdicts from the batched validation entry points.
Property-style tests pin the two backends against each other on randomised
relations (with NULLs and duplicated rows); further tests cover the
selection logic (environment variable, numpy masked out) and the relation-
scoped byte-budgeted mark-table cache.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery import FUN, TANE, HyFD
from repro.discovery.tane import ApproximateTANE
from repro.relational import backend as backend_module
from repro.relational.backend import (
    MarkTableCache,
    _resolve_backend,
    get_backend,
    numpy_available,
    set_backend,
    use_backend,
)
from repro.relational.partition import (
    PartitionCache,
    StrippedPartition,
    fd_holds_fast,
    fd_violation_fraction_from_partition,
    validate_level,
    validate_level_errors,
)
from repro.relational.relation import Relation

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy fast path not importable"
)

ATTRS = ("a", "b", "c", "d")

# Low-cardinality domains with NULL so that randomised relations exhibit
# duplicate rows, singleton groups and NULL-carrying groups all at once.
value = st.one_of(st.none(), st.integers(0, 3))
rows_strategy = st.lists(st.tuples(value, value, st.integers(0, 2), value),
                         min_size=0, max_size=40)


def flat(partition):
    """The flat arrays as plain lists (backend-independent view)."""
    positions, offsets = partition.positions, partition.offsets
    if not isinstance(positions, list):
        positions = positions.tolist()
    if not isinstance(offsets, list):
        offsets = offsets.tolist()
    return positions, offsets


def build(rows, backend_name):
    with use_backend(backend_name):
        relation = Relation("r", ATTRS, rows)
        partitions = {a: StrippedPartition.from_column(relation, a) for a in ATTRS}
    return relation, partitions


# ---------------------------------------------------------------------------
# Bit-compatibility of the two backends on randomised relations.
# ---------------------------------------------------------------------------


@requires_numpy
@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_grouping_is_bit_identical(rows):
    for attributes in (("a",), ("a", "b"), ("d", "b", "c"), ATTRS):
        results = []
        for name in ("python", "numpy"):
            with use_backend(name):
                relation = Relation("r", ATTRS, rows)
                results.append(flat(StrippedPartition.from_columns(relation, attributes)))
        assert results[0] == results[1]


@requires_numpy
@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_intersect_and_refines_are_bit_identical(rows):
    _, python_parts = build(rows, "python")
    _, numpy_parts = build(rows, "numpy")
    for first in ATTRS:
        for second in ATTRS:
            if first == second:
                continue
            with use_backend("python"):
                expected = flat(python_parts[first].intersect(python_parts[second]))
                expected_refines = python_parts[first].refines(python_parts[second])
            with use_backend("numpy"):
                actual = flat(numpy_parts[first].intersect(numpy_parts[second]))
                actual_refines = numpy_parts[first].refines(numpy_parts[second])
            assert actual == expected
            assert actual_refines == expected_refines


@requires_numpy
@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_combined_codes_are_bit_identical(rows):
    for attributes in (("a", "b"), ("c", "a", "d"), ATTRS):
        results = []
        for name in ("python", "numpy"):
            with use_backend(name):
                relation = Relation("r", ATTRS, rows)
                codes, width = relation.combined_column_codes(attributes)
                again, width_again = relation.combined_column_codes(attributes)
                assert list(again) == list(codes) and width_again == width
                results.append((list(codes), width))
        assert results[0] == results[1]


@requires_numpy
@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_g3_fd_checks_and_batched_validation_agree(rows):
    checks = ((("a",), "b"), (("b", "c"), "d"), (("d",), "a"), (("a", "c"), "b"))
    per_backend = []
    for name in ("python", "numpy"):
        with use_backend(name):
            relation = Relation("r", ATTRS, rows)
            cache = PartitionCache(relation)
            scalar = []
            batch = []
            if len(relation):
                for lhs, rhs in checks:
                    partition = cache.get(lhs)
                    scalar.append(
                        (
                            fd_holds_fast(relation, partition, rhs),
                            fd_violation_fraction_from_partition(relation, partition, rhs),
                        )
                    )
                    batch.append((partition, rhs))
            verdicts = validate_level(relation, batch)
            errors = validate_level_errors(relation, batch)
            # Batched answers must equal the scalar primitives point-wise.
            for (holds, g3), verdict, error in zip(scalar, verdicts, errors):
                assert verdict == holds
                assert error == pytest.approx(g3)
                assert (error == 0.0) == holds
            per_backend.append((verdicts, errors))
    assert per_backend[0] == per_backend[1]


@requires_numpy
@settings(max_examples=12, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2), st.one_of(st.none(), st.integers(0, 2)),
                               st.integers(0, 1)), min_size=0, max_size=16))
def test_discovery_results_identical_across_backends(rows):
    per_backend = []
    for name in ("python", "numpy"):
        with use_backend(name):
            relation = Relation("r", ("a", "b", "c"), rows)
            per_backend.append(
                tuple(
                    tuple(algorithm.discover(relation).as_list())
                    for algorithm in (TANE(), FUN(), HyFD(), ApproximateTANE(0.2))
                )
            )
    assert per_backend[0] == per_backend[1]


def test_validate_level_on_empty_relation_and_empty_batch():
    relation = Relation("r", ATTRS, [])
    partition = StrippedPartition([], 0)
    assert validate_level(relation, [(partition, "a")]) == [True]
    assert validate_level_errors(relation, [(partition, "a")]) == [0.0]
    assert validate_level(relation, []) == []
    assert validate_level_errors(relation, []) == []


# ---------------------------------------------------------------------------
# Backend selection: environment variable, explicit pinning, graceful fallback.
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_resolver_names(self):
        assert _resolve_backend("python").name == "python"
        if numpy_available():
            assert _resolve_backend("numpy").name == "numpy"
            assert _resolve_backend("auto").name == "numpy"

    def test_unknown_choice_rejected(self):
        with pytest.raises(ValueError):
            _resolve_backend("fortran")

    def test_env_variable_forces_python(self, monkeypatch):
        monkeypatch.setenv(backend_module.BACKEND_ENV_VAR, "python")
        previous = set_backend(None)  # drop the cached resolution
        try:
            assert get_backend().name == "python"
        finally:
            set_backend(previous)

    def test_use_backend_restores_previous(self):
        before = get_backend()
        with use_backend("python") as active:
            assert active.name == "python"
            assert get_backend() is active
        assert get_backend() is before

    def test_auto_falls_back_to_python_when_numpy_masked(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_np", None)
        assert _resolve_backend("auto").name == "python"

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_np", None)
        with pytest.raises(RuntimeError):
            _resolve_backend("numpy")

    def test_kernel_runs_with_numpy_masked(self, monkeypatch):
        """The whole kernel works end to end on the forced fallback."""
        monkeypatch.setattr(backend_module, "_np", None)
        with use_backend(_resolve_backend("auto")):
            relation = Relation(
                "r", ("a", "b"), [(1, "x"), (1, "x"), (2, "y"), (2, "z"), (1, "x")]
            )
            assert get_backend().name == "python"
            first = StrippedPartition.from_column(relation, "a")
            second = StrippedPartition.from_column(relation, "b")
            product = first.intersect(second)
            assert flat(product) == flat(
                StrippedPartition.from_columns(relation, ("a", "b"))
            )
            assert validate_level(relation, [(first, "b"), (second, "a")]) == [
                False,
                True,
            ]
            result = TANE().discover(relation)
            assert result.stats.extra["partition_backend"] == "python"


# ---------------------------------------------------------------------------
# Relation-scoped, byte-budgeted mark-table cache.
# ---------------------------------------------------------------------------


class TestMarkTableCache:
    def relation(self):
        return Relation(
            "r",
            ("a", "b", "c"),
            [(1, "x", 10), (1, "x", 10), (2, "y", 10), (2, "y", 20), (3, "x", 30)],
        )

    def test_caches_are_relation_scoped(self):
        first, second = self.relation(), self.relation()
        assert first.mark_cache is first.mark_cache
        assert first.mark_cache is not second.mark_cache
        partition = StrippedPartition.from_column(first, "a")
        partition.intersect(StrippedPartition.from_column(first, "b"))
        assert first.mark_cache.stats.requests > 0
        assert second.mark_cache.stats.requests == 0

    def test_intersect_products_inherit_the_relation_cache(self):
        relation = self.relation()
        first = StrippedPartition.from_column(relation, "a")
        second = StrippedPartition.from_column(relation, "b")
        assert first.intersect(second)._mark_cache is relation.mark_cache

    def test_hits_after_repeated_probes(self):
        relation = self.relation()
        build_side = StrippedPartition.from_column(relation, "c")
        probe = StrippedPartition.from_column(relation, "a")
        for _ in range(3):
            probe.refines(build_side)
        stats = relation.mark_cache.stats
        assert stats.hits >= 2
        assert 0.0 < stats.hit_rate <= 1.0

    def test_byte_budget_evicts_lru_but_keeps_results_exact(self):
        relation = self.relation()
        relation._mark_cache = MarkTableCache(budget_bytes=8 * len(relation))
        partitions = [StrippedPartition.from_column(relation, a) for a in ("a", "b", "c")]
        expected = [
            flat(left.intersect(right))
            for left in partitions
            for right in partitions
            if left is not right
        ]
        assert relation.mark_cache.stats.evictions > 0
        assert relation.mark_cache.held_bytes <= 8 * len(relation)
        # Evicted tables are rebuilt on demand: same products, any order.
        actual = [
            flat(left.intersect(right))
            for left in partitions
            for right in partitions
            if left is not right
        ]
        assert actual == expected

    def test_budget_defaults_to_env_override(self, monkeypatch):
        monkeypatch.setenv(backend_module.MARKS_BUDGET_ENV_VAR, "12345")
        assert MarkTableCache().budget_bytes == 12345
        monkeypatch.delenv(backend_module.MARKS_BUDGET_ENV_VAR)
        assert MarkTableCache().budget_bytes == backend_module.DEFAULT_MARKS_BUDGET_BYTES


def test_combined_codes_match_a_fresh_relation():
    def relation():
        return Relation(
            "r",
            ("a", "b", "c", "d"),
            [(i % 3, i % 2, i % 4, i % 5) for i in range(30)],
        )

    reused = relation()
    full, full_width = reused.combined_column_codes(("a", "b", "c"))
    extended, extended_width = reused.combined_column_codes(("a", "b", "d"))
    fresh, fresh_width = relation().combined_column_codes(("a", "b", "c"))
    fresh_extended, fresh_extended_width = relation().combined_column_codes(("a", "b", "d"))
    assert (list(full), full_width) == (list(fresh), fresh_width)
    assert (list(extended), extended_width) == (list(fresh_extended), fresh_extended_width)


# ---------------------------------------------------------------------------
# Stats surfacing.
# ---------------------------------------------------------------------------


def test_discovery_stats_extra_reports_backend_and_kernel_counters():
    relation = Relation("r", ("a", "b"), [(1, 2), (1, 2), (2, 3), (2, 4)])
    result = TANE().discover(relation)
    extra = result.stats.extra
    assert extra["partition_backend"] == get_backend().name
    assert "kernel" in extra and "mark_hits" in extra["kernel"]
    fun_result = FUN().discover(relation)
    assert "partition_cache" in fun_result.stats.extra
    assert fun_result.stats.extra["partition_cache"]["misses"] >= 1
