"""Compensation exactness (hypothesis).

SWEEP's core claim: subtracting the locally-known effect of leaked
concurrent deltas from a probe answer reconstructs exactly the answer
the source would have given *before* those deltas committed.  We
generate a base table, a set of concurrent deltas and a probe, apply
the deltas, compensate the polluted answer, and require equality with
the clean answer.

Compensation sums same-schema deltas and evaluates the probe once per
sum; the second half checks that against the one-probe-per-delta loop
it replaced, including incompatible deltas and strict mode.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.maintenance.compensation import (
    CompensationLog,
    OverCompensationError,
    compensate_answer,
    effect_on_answer,
    pending_data_updates,
)
from repro.relational.delta import Delta
from repro.relational.errors import RelationalError
from repro.relational.executor import execute
from repro.relational.predicate import (
    Comparison,
    Conjunction,
    InPredicate,
    attr,
)
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sources.messages import DataUpdate, UpdateMessage

SCHEMA = RelationSchema.of(
    "R", [("k", AttributeType.INT), ("v", AttributeType.STRING)]
)

rows = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["a", "b", "c"]),
)


def probe(values) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "v")),
        selection=InPredicate(attr("R", "k"), frozenset(values)),
    )


@st.composite
def scenario(draw):
    base_rows = draw(st.lists(rows, min_size=0, max_size=10))
    table = Table(SCHEMA, base_rows)
    deltas = []
    live = list(base_rows)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        delta = Delta(SCHEMA)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if live and draw(st.booleans()):
                index = draw(
                    st.integers(min_value=0, max_value=len(live) - 1)
                )
                delta.add(live.pop(index), -1)
            else:
                row = draw(rows)
                delta.add(row, 1)
                live.append(row)
        deltas.append(delta)
    probe_values = draw(
        st.frozensets(st.integers(min_value=0, max_value=4), min_size=1)
    )
    return table, deltas, probe_values


@given(scenario())
@settings(max_examples=80, deadline=None)
def test_compensation_reconstructs_clean_answer(data):
    table, deltas, probe_values = data
    query = probe(probe_values)
    from repro.relational.executor import execute

    clean = execute(query, {"R": table.copy()})

    polluted_table = table.copy()
    messages = []
    for seqno, delta in enumerate(deltas, start=1):
        polluted_table.apply_delta(delta)
        messages.append(
            UpdateMessage(
                "s", seqno, float(seqno), DataUpdate("R", delta.copy())
            )
        )
    polluted = execute(query, {"R": polluted_table})

    leaked = pending_data_updates(
        messages, "s", "R", answered_at=float(len(deltas)) + 1
    )
    assert leaked == messages  # all committed before the answer
    corrected = compensate_answer(polluted, query, "R", leaked)
    assert corrected == clean


@given(scenario())
@settings(max_examples=40, deadline=None)
def test_compensation_ignores_post_answer_deltas(data):
    table, deltas, probe_values = data
    assume(deltas)
    query = probe(probe_values)
    from repro.relational.executor import execute

    # Only the first half of the deltas committed before the answer.
    cutoff = len(deltas) // 2
    visible_table = table.copy()
    for delta in deltas[:cutoff]:
        visible_table.apply_delta(delta)
    answer = execute(query, {"R": visible_table})

    messages = [
        UpdateMessage("s", i + 1, float(i + 1), DataUpdate("R", d.copy()))
        for i, d in enumerate(deltas)
    ]
    leaked = pending_data_updates(
        messages, "s", "R", answered_at=float(cutoff) + 0.5
    )
    corrected = compensate_answer(answer, query, "R", leaked)
    assert corrected == execute(query, {"R": table.copy()})


# ----------------------------------------------------------------------
# grouped compensation == per-delta compensation
# ----------------------------------------------------------------------

#: the probe's attributes in another column order: a second schema the
#: probe still evaluates (projection resolves by name)
SWAPPED = RelationSchema.of(
    "R", [("v", AttributeType.STRING), ("k", AttributeType.INT)]
)
#: lacks ``v``: every probe over it raises at projection
NARROW = RelationSchema.of("R", [("k", AttributeType.INT)])


def per_delta_reference(answer, query, alias, deltas, log):
    """Compensation as one probe evaluation per delta (the reference)."""
    corrected = answer.as_delta()
    for delta in deltas:
        if delta.is_empty():
            continue
        try:
            effect = effect_on_answer(query, alias, delta)
        except RelationalError:
            log.skipped_incompatible += 1
            continue
        corrected.merge(effect.negated())
    table = Table(answer.schema)
    for row, count in corrected.items():
        if count < 0:
            if log.strict:
                raise OverCompensationError(f"{row!r}")
            continue
        table.insert(row, count)
    return table


def laid_out(schema, row):
    """``row`` over (k, v) rearranged into ``schema``'s column order."""
    return row if schema is SCHEMA else (row[1], row[0])


@st.composite
def mixed_deltas(draw):
    answer = Table(SCHEMA, draw(st.lists(rows, max_size=8)))
    deltas = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        schema = draw(st.sampled_from([SCHEMA, SWAPPED]))
        delta = Delta(schema)
        for row in draw(st.lists(rows, min_size=1, max_size=3)):
            delta.add(laid_out(schema, row), draw(st.sampled_from([1, -1])))
        deltas.append(delta)
    # insert/delete pairs that cancel only across deltas
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        schema = draw(st.sampled_from([SCHEMA, SWAPPED]))
        row = laid_out(schema, draw(rows))
        deltas.append(Delta(schema, {row: 1}))
        deltas.append(Delta(schema, {row: -1}))
    # arity-incompatible deltas: one alone, or a pair whose sum raises
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        deltas.append(Delta(NARROW, {(draw(rows)[0],): 1}))
    deltas = draw(st.permutations(deltas))
    extra = draw(st.integers(min_value=0, max_value=len(deltas)))
    probe_values = draw(
        st.frozensets(st.integers(min_value=0, max_value=4), min_size=1)
    )
    return answer, deltas, extra, probe_values, draw(st.booleans())


def _outcome(compensate):
    try:
        return compensate(), None
    except RelationalError as exc:
        return None, type(exc)


@given(mixed_deltas())
@settings(max_examples=150, deadline=None)
def test_grouped_compensation_equals_per_delta(data):
    answer, deltas, extra, probe_values, strict = data
    query = probe(probe_values)
    answer = execute(query, {"R": answer})
    leaked = [
        UpdateMessage("s", seqno, float(seqno), DataUpdate("R", delta))
        for seqno, delta in enumerate(deltas[extra:], start=1)
    ]
    grouped_log = CompensationLog(strict=strict)
    reference_log = CompensationLog(strict=strict)

    grouped, grouped_error = _outcome(
        lambda: compensate_answer(
            answer, query, "R", leaked, grouped_log, list(deltas[:extra])
        )
    )
    reference, reference_error = _outcome(
        lambda: per_delta_reference(
            answer, query, "R", list(deltas), reference_log
        )
    )
    assert grouped_error is reference_error
    assert grouped == reference
    assert (
        grouped_log.skipped_incompatible
        == reference_log.skipped_incompatible
    )


def test_cancelled_row_that_raises_forces_per_delta_accounting():
    # ``w`` is missing from R, but only rows passing ``k IN {1}`` reach
    # it.  The offending row (1, "a") cancels across the two deltas, so
    # the sum alone would evaluate cleanly.
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "v")),
        selection=Conjunction(
            (
                InPredicate(attr("R", "k"), frozenset({1})),
                Comparison(attr("R", "w"), "=", "x"),
            )
        ),
    )
    deltas = [
        Delta(SCHEMA, {(1, "a"): 1, (2, "b"): 1}),
        Delta(SCHEMA, {(1, "a"): -1}),
    ]
    answer = Table(SCHEMA, [(2, "b")])
    grouped_log = CompensationLog()
    reference_log = CompensationLog()
    grouped = compensate_answer(
        answer, query, "R", [], grouped_log, deltas
    )
    assert grouped == per_delta_reference(
        answer, query, "R", deltas, reference_log
    )
    assert grouped_log.skipped_incompatible == 2
    assert reference_log.skipped_incompatible == 2
