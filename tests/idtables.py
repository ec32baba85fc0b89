"""Test helpers: term tables ↔ id tables through the one wire form, and
the payloads that carry it."""

from repro.channels import Output
from repro.channels.packets import DataPacket
from repro.execution.encoded import EncodedTable
from repro.livedata.updates import ContinuousUpdate
from repro.peers.protocol import DelegatedResult, QueryResult

#: payload kind → (build it around a packed table, read the table back)
TABLE_BEARERS = {
    "DataPacket": (lambda t: DataPacket("ch-1", ((0, t),)), lambda p: p.tables[0][1]),
    "QueryResult": (lambda t: QueryResult("q1", t), lambda p: p.table),
    "DelegatedResult": (lambda t: DelegatedResult("q1", t, "P2"), lambda p: p.table),
    "ContinuousUpdate": (lambda t: ContinuousUpdate("q1", t, t, 3), lambda p: p.added),
}


def open_one(manager, network, plan, callback, destination="P2"):
    """Open a channel that ships the lone subplan ``plan``."""
    return manager.open(network, destination, [Output(plan, callback)])


def encode_cells(table, dictionary):
    """Intern a term table's cells into ``dictionary``: the id table
    (a ``BindingBatch``) the engine would hold for it."""
    return EncodedTable.of_terms(table).intern(dictionary)


def decode_cells(batch, dictionary):
    """Materialise an id table of ``dictionary``'s space as a term
    ``BindingTable`` — what the oracle's operators compare against."""
    return EncodedTable.of_batch(batch, dictionary.decode_many).to_terms()


def cells(batch):
    """Every cell of a batch, column by column."""
    return [cell for name in batch.columns for cell in batch.data[name]]
