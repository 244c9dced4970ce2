"""Algorithm 5 — ``mineFDs``: selective mining of the remaining join FDs.

Join FDs (Definition 7) mix attributes of both join inputs and cannot be
obtained by logical inference (Theorem 3); they must be validated against
join data.  The selective mining implemented here avoids the full-view FD
discovery of the straightforward approach by combining three prunings:

* **domination** — candidates whose LHS contains the LHS of an already known
  FD with the same RHS cannot be minimal and are neither validated nor
  expanded;
* **Armstrong shortcut** — candidates implied by the FDs already known to
  hold on the join are valid by construction and need no data access (they
  are classified as *inferred*, per Definition 6);
* **Theorem 4** — a candidate ``A A' -> b`` with ``b`` from the side whose
  join attributes are ``Y`` can only hold if ``Y A' -> b`` holds on that
  side, which is decided from the side's FD cover without touching the join.

Only when a candidate survives all three prunings is the (partial) join
materialised — lazily, once — and the candidate checked with stripped
partitions.  LHS partitions come from one
:func:`~repro.relational.partition.make_partition_cache` per join node, so
the active ``EngineConfig.partition_cache_max_positions`` bounds it like
every other algorithm-owned cache (unbounded by default).  Data validations
run on the pluggable partition backend (``fd_holds_fast`` probes the LHS
partition's groups against the cached RHS column codes — a boolean-mask
pass on the numpy fast path, an early-exit scan on the pure-python
fallback); candidates here are validated one by one because each verdict
feeds the Armstrong/domination prunings of the very next candidate, unlike
the independent levels batched by TANE/FUN.

The closures the prunings consult are memoised per call: the side closures
of Theorem 4 by the candidate's same-side LHS part (the side covers never
change within a join node), and closures over ``known + found`` until the
next discovered FD makes them stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..fd.closure import FDIndex
from ..fd.fd import FD
from ..relational.algebra import JoinKind, equi_join
from ..relational.partition import PartitionCache, fd_holds_fast, make_partition_cache
from ..relational.relation import Relation
from .provenance import FDType, ProvenanceTriple


@dataclass
class JoinMiningOutcome:
    """Result of ``mineFDs`` for one join node."""

    #: Provenance triples of the FDs discovered by the selective mining
    #: (``joinFD`` for data-validated ones, ``inferred`` for Armstrong shortcuts).
    triples: list[ProvenanceTriple] = field(default_factory=list)
    #: The discovered FDs (also contained in ``triples``).
    fds: list[FD] = field(default_factory=list)
    #: Number of candidates validated against the (partial) join data.
    candidates_validated: int = 0
    #: Number of candidates handled purely logically (Armstrong or Theorem 4).
    candidates_pruned_logically: int = 0
    #: Whether the partial join had to be materialised at all.
    join_materialised: bool = False
    #: Number of rows of the materialised partial join (0 if not materialised).
    partial_join_rows: int = 0
    #: The materialised partial join, if any (reused by the engine for enclosing nodes).
    joined: Relation | None = None


def mine_join_fds(
    left_instance: Relation,
    right_instance: Relation,
    left_on: Sequence[str],
    right_on: Sequence[str],
    kind: JoinKind,
    left_fds: Iterable[FD],
    right_fds: Iterable[FD],
    known_fds: Iterable[FD],
    attributes: Sequence[str],
    subquery: str,
    max_lhs_size: int | None = None,
    use_theorem4: bool = True,
) -> JoinMiningOutcome:
    """Selective mining of the join FDs of one join node (Algorithm 5).

    Parameters
    ----------
    left_instance, right_instance:
        The materialised join inputs (restricted to needed attributes).
    left_on, right_on:
        The join attributes of each side.
    kind:
        The join operator.
    left_fds, right_fds:
        Complete minimal FD sets of the (reduced) join inputs, used by the
        Theorem 4 pruning.
    known_fds:
        All FDs already known to hold on the join (carried base FDs, upstaged
        FDs and inferred FDs).
    attributes:
        The projected attribute set ``AV`` restricting the candidate space.
    subquery:
        The sub-query string recorded in the provenance triples.
    max_lhs_size:
        Optional cap on the explored LHS size.
    use_theorem4:
        Disable to measure the impact of the Theorem 4 pruning (ablation).
    """
    outcome = JoinMiningOutcome()
    if kind.is_semi:
        # A semi-join keeps the attributes of a single side: by Definition 7
        # there is no room for join FDs.
        return outcome

    left_side = set(left_instance.attribute_names)
    right_side = set(right_instance.attribute_names)
    dropped_right = {rgt for lft, rgt in zip(left_on, right_on) if lft == rgt}
    output_attrs = tuple(left_instance.attribute_names) + tuple(
        a for a in right_instance.attribute_names if a not in dropped_right
    )
    allowed = set(attributes)
    view_attrs = [a for a in output_attrs if a in allowed]
    if len(view_attrs) < 2:
        return outcome

    known = list(known_fds)
    left_cover = list(left_fds)
    right_cover = list(right_fds)
    left_cover_index = FDIndex(left_cover)
    right_cover_index = FDIndex(right_cover)
    left_join_attrs = set(left_on)
    right_join_attrs = set(right_on)
    found: list[FD] = []
    max_size = max_lhs_size if max_lhs_size is not None else len(view_attrs) - 1

    joined: Relation | None = None
    joined_attrs: frozenset[str] = frozenset()
    cache: PartitionCache | None = None
    closure_cache: dict[frozenset[str], frozenset[str]] = {}
    known_index = FDIndex(known)
    # Closures over `known + found` are memoised until the mining discovers a
    # new FD; the first closure asked after a discovery re-indexes and starts
    # a fresh memo.
    combined_index = known_index
    combined_cache: dict[frozenset[str], frozenset[str]] = {}
    combined_stale = False
    # Theorem 4 side closures, keyed by the candidate's same-side LHS part.
    left_closures: dict[frozenset[str], frozenset[str]] = {}
    right_closures: dict[frozenset[str], frozenset[str]] = {}

    def known_closure(lhs: frozenset[str]) -> frozenset[str]:
        cached = closure_cache.get(lhs)
        if cached is None:
            cached = known_index.closure(lhs)
            closure_cache[lhs] = cached
        return cached

    def combined_closure(lhs: frozenset[str]) -> frozenset[str]:
        nonlocal combined_index, combined_stale
        if combined_stale:
            combined_index = FDIndex(known + found)
            combined_cache.clear()
            combined_stale = False
        cached = combined_cache.get(lhs)
        if cached is None:
            cached = combined_index.closure(lhs)
            combined_cache[lhs] = cached
        return cached

    def materialise_join() -> tuple[Relation, PartitionCache]:
        nonlocal joined, joined_attrs, cache
        if joined is None:
            joined = equi_join(
                left_instance, right_instance, left_on, right_on, kind=kind,
                name=f"partial({subquery})",
            )
            joined_attrs = frozenset(joined.attribute_names)
            cache = make_partition_cache(joined)
            outcome.join_materialised = True
            outcome.partial_join_rows = len(joined)
            outcome.joined = joined
        assert cache is not None
        return joined, cache

    for rhs in view_attrs:
        other_attrs = [a for a in view_attrs if a != rhs]
        dominating = [f.lhs for f in known if f.rhs == rhs]
        in_left = rhs in left_side
        in_right = rhs in right_side or rhs in dropped_right
        if use_theorem4 and not _rhs_is_plausible(
            rhs, in_left, in_right, left_join_attrs, right_join_attrs, left_cover, right_cover
        ):
            # No minimal FD of the side owning ``rhs`` involves that side's
            # join attributes in its determinant, so by Theorem 4 no
            # cross-side FD with this dependent can hold: skip the whole
            # right-hand side without generating any candidate.
            outcome.candidates_pruned_logically += 1
            continue

        alive: list[frozenset[str]] = [frozenset({a}) for a in other_attrs]
        size = 1
        while alive and size <= max_size:
            expandable: list[frozenset[str]] = []
            for lhs in sorted(alive, key=lambda s: tuple(sorted(s))):
                if any(d <= lhs for d in dominating):
                    continue  # dominated: neither minimal nor worth expanding
                attrs = lhs | {rhs}
                crosses = not attrs <= left_side and not attrs <= (right_side | dropped_right)
                if not crosses:
                    # Entirely single-sided and not dominated by that side's
                    # complete FD set: it cannot hold, but supersets that add
                    # attributes from the other side still can.
                    expandable.append(lhs)
                    continue
                closure = known_closure(lhs)
                if rhs in closure:
                    # Valid by Armstrong reasoning over FDs carried from the
                    # inputs: an inferred FD (Definition 6), no data access.
                    outcome.candidates_pruned_logically += 1
                    dependency = FD(lhs, rhs)
                    found.append(dependency)
                    dominating.append(lhs)
                    combined_stale = True
                    outcome.triples.append(
                        ProvenanceTriple(dependency, FDType.INFERRED, subquery)
                    )
                    continue
                if rhs in combined_closure(lhs):
                    # Valid, but only thanks to previously mined join FDs: it
                    # is a join FD itself (Definition 7), still no data access.
                    outcome.candidates_pruned_logically += 1
                    dependency = FD(lhs, rhs)
                    found.append(dependency)
                    dominating.append(lhs)
                    combined_stale = True
                    outcome.triples.append(
                        ProvenanceTriple(dependency, FDType.JOIN, subquery)
                    )
                    continue
                if use_theorem4 and not _theorem4_admits(
                    lhs, rhs, in_left, in_right,
                    left_side, right_side, left_join_attrs, right_join_attrs,
                    left_cover_index, right_cover_index, left_closures, right_closures,
                ):
                    # The candidate cannot hold on the join (Theorem 4);
                    # supersets adding same-side attributes may still hold.
                    outcome.candidates_pruned_logically += 1
                    expandable.append(lhs)
                    continue
                join_instance, join_cache = materialise_join()
                outcome.candidates_validated += 1
                usable = lhs <= joined_attrs and rhs in joined_attrs
                if usable and fd_holds_fast(join_instance, join_cache.get(lhs), rhs):
                    dependency = FD(lhs, rhs)
                    found.append(dependency)
                    dominating.append(lhs)
                    combined_stale = True
                    outcome.triples.append(
                        ProvenanceTriple(dependency, FDType.JOIN, subquery)
                    )
                else:
                    expandable.append(lhs)
            alive = _next_level(expandable, other_attrs)
            size += 1

    outcome.fds = sorted(found, key=FD.sort_key)
    return outcome


def _rhs_is_plausible(
    rhs: str,
    in_left: bool,
    in_right: bool,
    left_join_attrs: set[str],
    right_join_attrs: set[str],
    left_cover: list[FD],
    right_cover: list[FD],
) -> bool:
    """Whether any cross-side FD with dependent ``rhs`` can exist at all.

    A minimal join FD ``A A' -> rhs`` (with ``rhs`` owned by side ``J`` whose
    join attributes are ``Y``) requires ``Y A' -> rhs`` to hold on the
    reduced ``J`` (Theorem 4) while no ``A'' ⊆ A'`` alone determines ``rhs``
    (otherwise the candidate is dominated).  Both conditions together imply
    that some *minimal* FD of ``J`` with dependent ``rhs`` uses at least one
    join attribute in its determinant.  If no such FD exists, every candidate
    with this dependent is either impossible or dominated, and the dependent
    can be skipped outright.
    """
    if rhs in left_join_attrs or rhs in right_join_attrs:
        return True
    if in_right and any(
        dependency.rhs == rhs and dependency.lhs & right_join_attrs
        for dependency in right_cover
    ):
        return True
    if in_left and any(
        dependency.rhs == rhs and dependency.lhs & left_join_attrs
        for dependency in left_cover
    ):
        return True
    return False


def _theorem4_admits(
    lhs: frozenset[str],
    rhs: str,
    in_left: bool,
    in_right: bool,
    left_side: set[str],
    right_side: set[str],
    left_join_attrs: set[str],
    right_join_attrs: set[str],
    left_cover_index: FDIndex,
    right_cover_index: FDIndex,
    left_closures: dict[frozenset[str], frozenset[str]],
    right_closures: dict[frozenset[str], frozenset[str]],
) -> bool:
    """Whether Theorem 4 allows the candidate ``lhs -> rhs`` to hold at all.

    For a dependent attribute from side ``J`` with join attributes ``Y``, the
    candidate can hold only if ``Y ∪ (lhs ∩ atts(J)) -> rhs`` holds on the
    (reduced) instance of ``J``, which is decided against that side's
    complete FD cover (indexed once per join node).  ``left_closures`` and
    ``right_closures`` memoise those side closures by the same-side part of
    ``lhs``, which is all they depend on within one join node.  A dependent
    shared by both sides (a join attribute) admits the candidate whenever
    either side does.
    """
    if in_right:
        if rhs in right_join_attrs:
            return True
        same_side = lhs & (right_side - right_join_attrs)
        closure = right_closures.get(same_side)
        if closure is None:
            closure = right_cover_index.closure(right_join_attrs | same_side)
            right_closures[same_side] = closure
        if rhs in closure:
            return True
    if in_left:
        if rhs in left_join_attrs:
            return True
        same_side = lhs & (left_side - left_join_attrs)
        closure = left_closures.get(same_side)
        if closure is None:
            closure = left_cover_index.closure(left_join_attrs | same_side)
            left_closures[same_side] = closure
        if rhs in closure:
            return True
    return False


def _next_level(
    expandable: list[frozenset[str]], universe: Sequence[str]
) -> list[frozenset[str]]:
    """Generate the next candidate level from the surviving candidates."""
    next_level: set[frozenset[str]] = set()
    for lhs in expandable:
        for attribute in universe:
            if attribute not in lhs:
                next_level.add(lhs | {attribute})
    return sorted(next_level, key=lambda s: tuple(sorted(s)))
