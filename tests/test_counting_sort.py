"""Counting-sort and introsort grouping paths: bit-compatibility and selection.

The numpy backend groups a key space of at most ``COUNTING_SORT_SPACE``
(65 536) dense codes with a ``uint16`` counting sort and larger key spaces
with the composite introsort.  Both are *stable* sorts, and a stable sort's
permutation is unique, so either path must produce the same
``StrippedPartition`` as the pure-python backend (same group order, same
positions).  These tests pin that on inputs on either side of the bound,
check through the ``counting_sorts``/``introsorts`` counters which path ran,
and check the cross-LHS stacked level validation against the scalar oracle
on both of its internal paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.backend import COUNTING_SORT_SPACE, numpy_available
from repro.relational.partition import (
    StrippedPartition,
    fd_holds_fast,
    validate_level,
)
from repro.relational.relation import Relation
from repro.session import Session

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy fast path not importable")

ATTRS = ("a", "b", "c")


def flat(partition):
    positions, offsets = partition.positions, partition.offsets
    if not isinstance(positions, list):
        positions = positions.tolist()
    if not isinstance(offsets, list):
        offsets = offsets.tolist()
    return positions, offsets


def _column_relation(n_codes, extra=4096):
    """Column ``a`` with exactly ``n_codes`` distinct values, ``extra`` repeats.

    ``7919`` is coprime to every ``n_codes`` used here, so the first
    ``n_codes`` rows enumerate the whole key space and the repeats land
    scattered over it: the stripped partition has ``extra`` real groups.
    """
    rows = [((i * 7919) % n_codes, i % 3) for i in range(n_codes + extra)]
    return Relation("r", ("a", "b"), rows)


def _pair_relation(width_a):
    """``a`` with ``width_a`` values and ``b`` with 300; every pair twice."""
    rows = [(i % width_a, (i // 20) % 300) for i in range(6000)]
    return Relation("r", ("a", "b"), rows + rows)


#: ``(label, relation factory, build, (counting sorts, introsorts))``: the
#: number of numpy sorts of each kind one build must run.
BOUNDARY_CASES = [
    (
        "column at the bound",
        lambda: _column_relation(COUNTING_SORT_SPACE),
        lambda relation: StrippedPartition.from_column(relation, "a"),
        (1, 0),
    ),
    (
        "column past the bound",
        lambda: _column_relation(COUNTING_SORT_SPACE + 1),
        lambda relation: StrippedPartition.from_column(relation, "a"),
        (0, 1),
    ),
    # 200 * 300 = 60 000 combined keys fit the bound; 300 * 300 = 90 000
    # do not, so the fold step takes the introsort.  The fold re-densifies
    # to at most 6 000 codes, which the final grouping counting-sorts.
    (
        "pair below the bound",
        lambda: _pair_relation(200),
        lambda relation: StrippedPartition.from_columns(relation, ("a", "b")),
        (2, 0),
    ),
    (
        "pair past the bound",
        lambda: _pair_relation(300),
        lambda relation: StrippedPartition.from_columns(relation, ("a", "b")),
        (1, 1),
    ),
]


def _build(backend, relation, build):
    with Session(backend=backend) as session:
        partition = flat(build(relation))
        stats = session.kernel_stats()
    return partition, (stats["counting_sorts"], stats["introsorts"])


@pytest.fixture(scope="module")
def boundary_cases():
    return [
        (label, make_relation(), build, expected_sorts)
        for label, make_relation, build, expected_sorts in BOUNDARY_CASES
    ]


@requires_numpy
def test_counting_and_introsort_paths_are_byte_identical(boundary_cases):
    for label, relation, build, _ in boundary_cases:
        numpy_partition, _ = _build("numpy", relation, build)
        assert numpy_partition == _build("python", relation, build)[0], label
        assert numpy_partition[1][-1] > 0, f"{label}: needs non-singleton groups"


@requires_numpy
def test_threshold_forces_the_expected_sort_path(boundary_cases):
    for label, relation, build, expected_sorts in boundary_cases:
        assert _build("numpy", relation, build)[1] == expected_sorts, label


def test_python_backend_records_no_sorts():
    # The sort counters belong to the numpy backend: the pure-python leg
    # (and therefore the no-numpy leg) groups without them on either side
    # of the bound.
    for n_codes in (COUNTING_SORT_SPACE, COUNTING_SORT_SPACE + 1):
        relation = _column_relation(n_codes, extra=16)
        _, sorts = _build("python", relation, lambda r: StrippedPartition.from_column(r, "a"))
        assert sorts == (0, 0)


# Adversarial key-space shapes: constant (k=1), all-distinct (k=n, the
# all-singleton stripped partition), heavily skewed, and free random mixes.
def _shaped_column(draw, n, shape):
    if shape == "constant":
        return [0] * n
    if shape == "distinct":
        return list(range(n))
    if shape == "skewed":
        return [0 if draw(st.integers(0, 9)) else draw(st.integers(1, 3)) for _ in range(n)]
    return [draw(st.integers(0, max(1, n))) for _ in range(n)]


@st.composite
def shaped_rows(draw):
    n = draw(st.integers(0, 50))
    columns = [
        _shaped_column(draw, n, draw(st.sampled_from(("constant", "distinct", "skewed", "random"))))
        for _ in ATTRS
    ]
    return [tuple(column[i] for column in columns) for i in range(n)]


def _partitions(rows, backend):
    with Session(backend=backend):
        relation = Relation("r", ATTRS, rows)
        singles = [flat(StrippedPartition.from_column(relation, a)) for a in ATTRS]
        combined = flat(StrippedPartition.from_columns(relation, ATTRS))
        pair = StrippedPartition.from_column(relation, "a").intersect(
            StrippedPartition.from_column(relation, "b")
        )
    return singles, combined, flat(pair)


@requires_numpy
@settings(max_examples=60, deadline=None)
@given(rows=shaped_rows())
def test_small_key_spaces_match_the_python_backend(rows):
    assert _partitions(rows, "numpy") == _partitions(rows, "python")


# ---------------------------------------------------------------------------
# Cross-LHS batched level validation.
# ---------------------------------------------------------------------------


def _level_case():
    rows = [(i % 6, i % 4, (i * 7) % 6) for i in range(96)]
    relation = Relation("r", ATTRS, rows)
    partitions = {a: StrippedPartition.from_column(relation, a) for a in ATTRS}
    batch = [(partitions[lhs], rhs) for lhs in ATTRS for rhs in ATTRS if lhs != rhs]
    return relation, batch


@pytest.mark.parametrize("backend", ["python", pytest.param("numpy", marks=requires_numpy)])
def test_validate_level_matches_scalar_oracle_across_partitions(backend):
    with Session(backend=backend):
        relation, batch = _level_case()
        expected = [fd_holds_fast(relation, p, rhs) for p, rhs in batch]
        assert validate_level(relation, batch) == expected


@requires_numpy
@pytest.mark.parametrize("budget", [0, 1 << 30])
def test_stacked_and_loop_level_paths_agree(budget, monkeypatch):
    # budget=0 forces the per-LHS loop; a huge budget forces the stacked
    # prescreen.  Both must match the scalar oracle.
    from repro.relational.backend import NumpyBackend

    monkeypatch.setattr(NumpyBackend, "LEVEL_STACK_MAX_ELEMENTS_PER_CANDIDATE", budget)
    with Session(backend="numpy"):
        relation, batch = _level_case()
        expected = [fd_holds_fast(relation, p, rhs) for p, rhs in batch]
        assert validate_level(relation, batch) == expected
