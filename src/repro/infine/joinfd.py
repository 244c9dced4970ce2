"""Algorithm 5 — ``mineFDs``: selective mining of the remaining join FDs.

Join FDs (Definition 7) mix attributes of both join inputs and cannot be
obtained by logical inference (Theorem 3); they must be validated against
join data.  The selective mining implemented here avoids the full-view FD
discovery of the straightforward approach: it walks the LHS lattice of the
node's join once, level by level, for every RHS at the same time (each
level maps an LHS to its open RHS set), and combines four prunings:

* **domination** — candidates whose LHS contains the LHS of an already known
  or found FD with the same RHS cannot be minimal and are neither validated
  nor expanded;
* **free sets** — an LHS ``X`` with some ``B ∈ X`` in the known closure of
  ``X ∖ {B}`` is dropped with all of its supersets, as in FUN (Novelli &
  Cicchetti, ICDT 2001): the known FDs hold on the join (an assumption
  that NULL padding breaks on outer joins), so ``π(X) = π(X ∖ {B})``
  there and no minimal FD has such a determinant;
* **Armstrong shortcut** — candidates implied by the FDs already known to
  hold on the join are valid by construction and need no data access (they
  are classified as *inferred*, per Definition 6);
* **Theorem 4** — a candidate ``A A' -> b`` with ``b`` from the side whose
  join attributes are ``Y`` can only hold if ``Y A' -> b`` holds on that
  side, which is decided from the side's FD cover without touching the join.

The candidates that survive are validated a whole level at a time, with one
:func:`~repro.relational.partition.validate_level` call on the join, as in
TANE (Huhtala et al., 1999).  Batching cannot change a verdict: two
candidates of one level have LHSs of equal size, so neither dominates the
other, and the known closures do not depend on the FDs found so far.  LHS
partitions come from the partition cache the engine builds once per join
node and shares with ``inferFDs``, so the active
``EngineConfig.partition_cache_max_positions`` bounds it like every other
algorithm-owned cache (unbounded by default).

The closures the prunings consult are memoised per call: the known closures
by LHS, and the side closures of Theorem 4 by the candidate's same-side LHS
part (the side covers never change within a join node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..fd.closure import FDIndex
from ..fd.fd import FD
from ..relational.algebra import JoinKind
from ..relational.partition import PartitionCache, validate_level
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
    #: Number of candidates validated against the join data.
    candidates_validated: int = 0
    #: Number of candidates handled purely logically (Armstrong or Theorem 4).
    candidates_pruned_logically: int = 0


def mine_join_fds(
    joined: Relation,
    cache: PartitionCache,
    left_attributes: Sequence[str],
    right_attributes: Sequence[str],
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
    joined:
        The node's join of its two (reduced) inputs.
    cache:
        The partition cache of ``joined``.
    left_attributes, right_attributes:
        The attributes of each join input.
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

    allowed = set(attributes)
    view_attrs = [a for a in joined.attribute_names if a in allowed]
    if len(view_attrs) < 2:
        return outcome

    known = list(known_fds)
    left_cover = list(left_fds)
    right_cover = list(right_fds)
    left_cover_index = FDIndex(left_cover)
    right_cover_index = FDIndex(right_cover)
    left_side = set(left_attributes)
    right_side = set(right_attributes)
    left_join_attrs = set(left_on)
    right_join_attrs = set(right_on)
    max_size = max_lhs_size if max_lhs_size is not None else len(view_attrs) - 1

    known_index = FDIndex(known)
    closure_cache: dict[frozenset[str], frozenset[str]] = {}
    # Theorem 4 side closures, keyed by the candidate's same-side LHS part.
    left_closures: dict[frozenset[str], frozenset[str]] = {}
    right_closures: dict[frozenset[str], frozenset[str]] = {}
    # Per RHS, the LHSs of the known and found FDs that dominate candidates.
    dominating: dict[str, list[frozenset[str]]] = {rhs: [] for rhs in view_attrs}
    for dependency in known:
        if dependency.rhs in dominating:
            dominating[dependency.rhs].append(dependency.lhs)

    def known_closure(lhs: frozenset[str]) -> frozenset[str]:
        cached = closure_cache.get(lhs)
        if cached is None:
            cached = known_index.closure(lhs)
            closure_cache[lhs] = cached
        return cached

    def is_free(lhs: frozenset[str]) -> bool:
        return not any(b in known_closure(lhs - {b}) for b in lhs)

    def record(lhs: frozenset[str], rhs: str, fd_type: FDType) -> None:
        dominating[rhs].append(lhs)
        outcome.triples.append(ProvenanceTriple(FD(lhs, rhs), fd_type, subquery))

    targets = []
    for rhs in view_attrs:
        if use_theorem4 and not _rhs_is_plausible(
            rhs, rhs in left_side, rhs in right_side,
            left_join_attrs, right_join_attrs, left_cover, right_cover,
        ):
            # No minimal FD of the side owning ``rhs`` involves that side's
            # join attributes in its determinant, so by Theorem 4 no
            # cross-side FD with this dependent can hold: skip the whole
            # right-hand side without generating any candidate.
            outcome.candidates_pruned_logically += 1
            continue
        targets.append(rhs)

    position = {attribute: index for index, attribute in enumerate(view_attrs)}
    level: dict[frozenset[str], set[str]] = {frozenset({a}): set(targets) for a in view_attrs}
    size = 1
    while level and size <= max_size:
        expandable: dict[frozenset[str], list[str]] = {}
        queued: list[tuple[frozenset[str], str]] = []
        for lhs, open_rhs in level.items():
            if not is_free(lhs):
                continue
            for rhs in sorted(open_rhs - lhs, key=position.__getitem__):
                if any(d <= lhs for d in dominating[rhs]):
                    continue  # dominated: neither minimal nor worth expanding
                attrs = lhs | {rhs}
                if attrs <= left_side or attrs <= right_side:
                    # Entirely single-sided and not dominated by that side's
                    # complete FD set: it cannot hold, but supersets that add
                    # attributes from the other side still can.
                    expandable.setdefault(lhs, []).append(rhs)
                elif rhs in known_closure(lhs):
                    # Valid by Armstrong reasoning over FDs carried from the
                    # inputs: an inferred FD (Definition 6), no data access.
                    outcome.candidates_pruned_logically += 1
                    record(lhs, rhs, FDType.INFERRED)
                elif use_theorem4 and not _theorem4_admits(
                    lhs, rhs, rhs in left_side, rhs in right_side,
                    left_side, right_side, left_join_attrs, right_join_attrs,
                    left_cover_index, right_cover_index, left_closures, right_closures,
                ):
                    # The candidate cannot hold on the join (Theorem 4);
                    # supersets adding same-side attributes may still hold.
                    outcome.candidates_pruned_logically += 1
                    expandable.setdefault(lhs, []).append(rhs)
                else:
                    queued.append((lhs, rhs))
        verdicts = validate_level(joined, [(cache.get(lhs), rhs) for lhs, rhs in queued])
        outcome.candidates_validated += len(queued)
        for (lhs, rhs), holds in zip(queued, verdicts):
            if holds:
                record(lhs, rhs, FDType.JOIN)
            else:
                expandable.setdefault(lhs, []).append(rhs)
        level = {}
        for lhs, open_rhs in expandable.items():
            for attribute in view_attrs:
                if attribute not in lhs:
                    level.setdefault(lhs | {attribute}, set()).update(open_rhs)
        size += 1

    outcome.triples.sort(
        key=lambda t: (position[t.dependency.rhs], len(t.dependency.lhs), sorted(t.dependency.lhs))
    )
    outcome.fds = sorted((t.dependency for t in outcome.triples), key=FD.sort_key)
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
