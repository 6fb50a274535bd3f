"""SWEEP-style local compensation for concurrent data updates.

A maintenance query answered at virtual time *t* reflects every update
the source committed up to *t* — including data updates that are still
queued *behind* the update currently being maintained.  Left alone,
those leaked effects produce the duplication anomaly (Example 1.a).

Compensation removes them **locally**, without issuing further queries
(Agrawal et al. [1]): the view manager already holds the concurrent
deltas in its UMQ, so it evaluates the same probe query against the
pending deltas and subtracts the effect from the answer.

All maintenance probes in this library are single-relation queries,
which makes local compensation *exact*: the effect of a pending delta on
a probe answer is simply the probe query evaluated over the delta.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..relational.delta import Delta
from ..relational.errors import RelationalError
from ..relational.executor import execute
from ..relational.query import SPJQuery
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..sources.messages import DataUpdate, UpdateMessage


class OverCompensationError(RelationalError):
    """A corrected probe answer went negative.

    Compensation subtracted an effect that was not in the answer —
    possible only when maintenance ordering is broken.  Under Dyno's
    corrected orders this is a real bug, so strict mode surfaces it
    instead of clamping; baseline strategies (which deliberately skip
    correction) keep the historical clamp-and-note behaviour.
    """


@dataclass
class CompensationLog:
    """Diagnostics: what compensation did during one maintenance run.

    ``compensated_tuples`` counts the net effect of each summed
    same-schema group of deltas (see :func:`compensate_answer`), so an
    insertion and a deletion of one row that cancel within a group
    count zero.
    """

    compensated_tuples: int = 0
    compensated_queries: int = 0
    skipped_incompatible: int = 0
    notes: list[str] = field(default_factory=list)
    #: raise :class:`OverCompensationError` on a negative corrected
    #: count instead of clamping (armed for Dyno-corrected strategies)
    strict: bool = False


def _effect_of_part(query: SPJQuery, alias: str, part: Delta) -> Table:
    table = Table(part.schema)
    for row, count in part.items():
        table.insert(row, count)
    return execute(query, {alias: table})


def effect_on_answer(query: SPJQuery, alias: str, delta: Delta) -> Delta:
    """Signed effect of ``delta`` on the answer of probe ``query``."""
    result_schema = None
    positive = delta.insertions
    negative = delta.deletions
    effect: Delta | None = None
    if len(positive):
        inserted = _effect_of_part(query, alias, positive)
        effect = inserted.as_delta()
        result_schema = inserted.schema
    if len(negative):
        deleted = _effect_of_part(query, alias, negative)
        if effect is None:
            effect = deleted.as_delta().negated()
            result_schema = deleted.schema
        else:
            effect.merge(deleted.as_delta().negated())
    if effect is None:
        # Empty delta: produce an empty effect with the right arity by
        # executing over an empty table.
        empty = _effect_of_part(query, alias, delta)
        effect = empty.as_delta()
    return effect


def pending_data_updates(
    messages_behind: list[UpdateMessage],
    source: str,
    relation: str,
    answered_at: float,
) -> list[UpdateMessage]:
    """Which queued updates leaked into an answer from ``source``.

    An update leaked iff it is a data update on the probed relation of
    the probed source and it committed no later than the answer was
    evaluated.  Updates committed *after* evaluation (e.g. during result
    transfer) did not affect the answer and must not be compensated.
    """
    leaked: list[UpdateMessage] = []
    for message in messages_behind:
        if not message.is_data_update:
            continue
        payload = message.payload
        assert isinstance(payload, DataUpdate)
        if (
            message.source == source
            and payload.relation == relation
            and message.committed_at <= answered_at + 1e-12
        ):
            leaked.append(message)
    return leaked


def _group_effects(
    query: SPJQuery,
    alias: str,
    group: list[Delta],
    log: CompensationLog | None,
) -> list[Delta]:
    """The effects that compensate one group of same-schema deltas.

    A single-alias probe is linear over signed bags, so the summed
    group's effect equals the sum of the per-delta effects and one probe
    evaluation suffices.  The one thing summing can change is *which*
    deltas fail to evaluate: a probe raises per offending row, and rows
    that cancel across the group vanish from the sum.  So the group is
    re-run delta by delta when the sum raises, or when its cancelled
    rows would — keeping ``skipped_incompatible`` exact.
    """
    if len(group) > 1:
        summed = Delta(group[0].schema)
        touched: set = set()
        for delta in group:
            summed.merge(delta)
            touched.update(row for row, _ in delta.items())
        cancelled = touched.difference(row for row, _ in summed.items())
        try:
            if cancelled:
                effect_on_answer(
                    query, alias, Delta.insertion(summed.schema, cancelled)
                )
            if summed.is_empty():
                return []
            return [effect_on_answer(query, alias, summed)]
        except RelationalError:
            pass  # fall through to the exact per-delta accounting
    effects: list[Delta] = []
    for delta in group:
        try:
            effects.append(effect_on_answer(query, alias, delta))
        except RelationalError as exc:
            if log is not None:
                log.skipped_incompatible += 1
                log.notes.append(f"skipped incompatible delta: {exc}")
    return effects


def compensate_answer(
    answer: Table,
    query: SPJQuery,
    alias: str,
    leaked: list[UpdateMessage],
    log: CompensationLog | None = None,
    extra_deltas: list[Delta] | None = None,
) -> Table:
    """Subtract the effect of leaked updates from a probe answer.

    ``extra_deltas`` lets the caller compensate effects that are not UMQ
    messages — the self-join case where the update's own delta must be
    removed from probes of later occurrences of the same relation.

    The deltas are grouped by schema and each group costs one probe
    evaluation over its sum (see :func:`_group_effects`) instead of one
    per leaked delta; answer rows are adopted without re-validation.

    Returns a fresh table; the input answer is not modified.  If a
    leaked delta cannot be evaluated against the probe (schema drift),
    it is skipped and counted in the log — under Dyno's corrected
    orders this never happens (see tests), but baseline strategies that
    skip correction can hit it.
    """
    deltas: list[Delta] = [
        message.payload.delta  # type: ignore[union-attr]
        for message in leaked
    ]
    if extra_deltas:
        deltas.extend(extra_deltas)
    # A call sees one or two distinct schemas, usually one shared
    # object: a linear scan with an identity test beats hashing the
    # schema of every delta.
    groups: list[tuple[RelationSchema, list[Delta]]] = []
    for delta in deltas:
        if delta.is_empty():
            continue
        for schema, group in groups:
            if delta.schema is schema or delta.schema == schema:
                group.append(delta)
                break
        else:
            groups.append((delta.schema, [delta]))

    validated = dict(answer.items())
    counts = Counter(validated)
    for _, group in groups:
        for effect in _group_effects(query, alias, group, log):
            for row, count in effect.items():
                counts[row] -= count
            if log is not None:
                log.compensated_tuples += effect.net_size()
    if log is not None:
        log.compensated_queries += 1

    # Rows of the answer were validated when it was built; only rows a
    # leaked deletion restores enter the result through validation.
    kept: Counter = Counter()
    restored: list[tuple] = []
    for row, count in counts.items():
        if count < 0:
            # A negative corrected count means we subtracted an effect
            # that was not actually in the answer — possible only when
            # maintenance ordering is broken (baseline strategies).
            if log is not None and log.strict:
                raise OverCompensationError(
                    f"over-compensation on {row!r} (count {count})"
                )
            if log is not None:
                log.notes.append(
                    f"over-compensation on {row!r} (count {count})"
                )
        elif count > 0:
            if row in validated:
                kept[row] = count
            else:
                restored.append((row, count))
    table = Table.from_counts(answer.schema, kept)
    for row, count in restored:
        table.insert(row, count)
    return table
