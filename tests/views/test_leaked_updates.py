"""The manager's leaked-set lookup and its per-epoch translation memo.

``_UMQView.leaked_updates`` filters pending messages on their raw
fields and translates only the survivors; it must agree, message for
message, with translating every pending message first and filtering
afterwards.  The translation memo it relies on must never serve a
translation from an earlier schema-history epoch, and must let go of a
message once its unit installs.
"""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import PESSIMISTIC
from repro.maintenance.compensation import pending_data_updates
from repro.relational.schema import Attribute
from repro.relational.types import AttributeType
from repro.sim.costs import CostModel
from repro.sources.messages import (
    AddAttribute,
    DataUpdate,
    DropAttribute,
    RenameAttribute,
    RenameRelation,
)
from repro.sources.workload import FixedUpdate, Workload
from repro.views.manager import _UMQView
from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    STORE_SCHEMA,
    build_bookstore,
)

HISTORIES = {
    "rename-relation": [("retailer", RenameRelation("Item", "Goods"))],
    "rename-chain": [
        ("retailer", RenameRelation("Item", "Goods")),
        ("retailer", RenameRelation("Goods", "Wares")),
    ],
    "drop-attribute": [("retailer", DropAttribute("Item", "Author"))],
    "add-attribute": [
        (
            "retailer",
            AddAttribute("Item", Attribute("Stock", AttributeType.INT)),
        )
    ],
    "rename-then-drop": [
        ("retailer", RenameAttribute("Item", "Book", "Title")),
        ("retailer", RenameRelation("Item", "Goods")),
        ("retailer", DropAttribute("Goods", "Price")),
    ],
}


def queued_manager():
    """A bookstore whose UMQ holds DUs on three relations, two sources."""
    engine, manager = build_bookstore(CostModel.free())
    retailer = engine.source("retailer")
    library = engine.source("library")
    retailer.commit(
        DataUpdate.insert(ITEM_SCHEMA, [(1, "Head", "H", 1.0)]), at=0.0
    )
    retailer.commit(
        DataUpdate.insert(ITEM_SCHEMA, [(1, "Later", "L", 2.0)]), at=1.0
    )
    retailer.commit(
        DataUpdate.insert(STORE_SCHEMA, [(3, "Powell")]), at=2.0
    )
    library.commit(
        DataUpdate.insert(
            CATALOG_SCHEMA, [("Later", "L", "CS", "MIT", "ok")]
        ),
        at=3.0,
    )
    retailer.commit(
        DataUpdate.delete(ITEM_SCHEMA, [(1, "Databases", "Gray", 50.0)]),
        at=4.0,
    )
    return engine, manager


def shape(message):
    payload = message.payload
    return (
        message.source,
        message.seqno,
        message.committed_at,
        payload.relation,
        payload.delta.schema.attribute_names,
        sorted(payload.delta.items()),
    )


def translate_then_filter(view, unit, source, relation, answered_at):
    """The reference: translate every pending message, then filter."""
    manager = view._manager
    pending = (
        view._extra
        + manager.umq.messages_behind(unit)
        + manager._in_flight_messages()
    )
    translated = [
        manager._translate(message) if message.is_data_update else message
        for message in pending
    ]
    return pending_data_updates(
        [message for message in translated if message is not None],
        source,
        relation,
        answered_at,
    )


@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_leaked_lookup_equals_translate_then_filter(history):
    engine, manager = queued_manager()
    for source, change in HISTORIES[history]:
        manager.schema_history.record(source, change)
    head = manager.umq.head()
    # In-unit siblings arrive already translated, as in a batch.
    extra = [manager._translate(message) for message in head.messages]
    view = _UMQView(manager, head, extra)
    probed = {"Item", "Goods", "Wares", "Store", "Catalog"}
    for source in ("retailer", "library"):
        for relation in sorted(probed):
            for answered_at in (0.5, 1.0, 2.5, 10.0):
                got = view.leaked_updates(
                    head, source, relation, answered_at
                )
                want = translate_then_filter(
                    view, head, source, relation, answered_at
                )
                assert [shape(m) for m in got] == [shape(m) for m in want]


def test_leaked_lookup_finds_renamed_updates_under_new_name():
    engine, manager = queued_manager()
    manager.schema_history.record(
        "retailer", RenameRelation("Item", "Goods")
    )
    head = manager.umq.head()
    view = _UMQView(manager, head, [])
    assert view.leaked_updates(head, "retailer", "Item", 10.0) == []
    leaked = view.leaked_updates(head, "retailer", "Goods", 10.0)
    assert [m.seqno for m in leaked] == [2, 4]
    assert {m.payload.relation for m in leaked} == {"Goods"}


def test_memo_is_not_served_across_a_record():
    engine, manager = queued_manager()
    message = manager.umq.messages()[1]
    manager.schema_history.record(
        "retailer", RenameRelation("Item", "Goods")
    )
    assert manager._translated(message).payload.relation == "Goods"
    assert manager._translated(message) is manager._translated(message)
    manager.schema_history.record(
        "retailer", DropAttribute("Goods", "Author")
    )
    fresh = manager._translated(message)
    assert fresh.payload.relation == "Goods"
    assert "Author" not in fresh.payload.delta.schema.attribute_names


def test_add_attribute_only_history_widens_queued_updates():
    engine, manager = queued_manager()
    message = manager.umq.messages()[1]
    manager.schema_history.record(
        "retailer",
        AddAttribute("Item", Attribute("Stock", AttributeType.INT)),
    )
    widened = manager._translated(message)
    assert widened.payload.delta.schema.attribute_names[-1] == "Stock"
    assert widened.payload.delta.count((1, "Later", "L", 2.0, None)) == 1


def test_memo_holds_no_installed_message_after_drain(monkeypatch):
    engine, manager = build_bookstore(CostModel.free())
    workload = Workload()
    workload.add(
        0.0, "retailer", FixedUpdate(RenameRelation("Store", "Shops"))
    )
    for index in range(4):
        workload.add(
            50.0 + index,
            "retailer",
            FixedUpdate(
                DataUpdate.insert(
                    ITEM_SCHEMA, [(1, f"Book{index}", "A", 1.0 + index)]
                )
            ),
        )
    engine.schedule_workload(workload)
    translated = []
    translate = manager._translate

    def counting(message):
        translated.append(message)
        return translate(message)

    monkeypatch.setattr(manager, "_translate", counting)
    DynoScheduler(manager, PESSIMISTIC).run()
    assert manager.umq.is_empty()
    assert translated  # the memo was in use after the rename installed
    assert manager._translations == {}
    assert manager.mv.extent == manager.recompute_reference()
