"""Durable peer state: snapshot, log replay, crash-point recovery.

The acceptance oracle of the durability layer: killing a peer at *any*
membership-log record boundary (or mid-record) and recovering must
yield exactly the state an uncrashed twin holds after the same prefix
of events — compared via the canonical state digest.
"""

import pytest

from repro.durability import (
    FileStore,
    MemoryStore,
    PeerStateStore,
    RecoveredState,
    state_digest,
)
from repro.rdf.serializer import serialize
from repro.rvl import ActiveSchema, parse_view
from repro.workloads.paper import PAPER_VIEW, paper_peer_bases, paper_schema


@pytest.fixture
def schema():
    return paper_schema()


@pytest.fixture
def bases():
    return paper_peer_bases()


def _advertisements(schema, bases):
    return {
        peer_id: ActiveSchema.from_base(graph, schema, peer_id)
        for peer_id, graph in bases.items()
    }


class TestSnapshot:
    def test_round_trip(self, schema, bases):
        store = PeerStateStore(MemoryStore(), "P1")
        view = parse_view(PAPER_VIEW)
        advertisement = ActiveSchema.from_base(bases["P1"], schema, "P1")
        nbytes = store.save_snapshot(bases["P1"], [view], advertisement)
        assert nbytes > 0
        recovered = store.recover()
        assert recovered.found and recovered.clean
        assert serialize(recovered.graph) == serialize(bases["P1"])
        assert [v.text for v in recovered.views] == [view.text]
        assert recovered.active_schema == advertisement

    def test_missing_state_is_not_found(self):
        recovered = PeerStateStore(MemoryStore(), "P1").recover()
        assert not recovered.found
        assert recovered.graph is None and recovered.advertisements == {}

    def test_second_snapshot_wins(self, schema, bases):
        store = PeerStateStore(MemoryStore(), "P1")
        store.save_snapshot(bases["P1"])
        store.save_snapshot(bases["P2"])
        assert serialize(store.recover().graph) == serialize(bases["P2"])


class TestLogReplay:
    def test_events_replay_last_writer_wins(self, schema, bases):
        ads = _advertisements(schema, bases)
        store = PeerStateStore(MemoryStore(), "P1")
        store.log_advertise(ads["P2"])
        store.log_advertise(ads["P3"])
        store.log_quarantine("P3")
        store.log_goodbye("P2")
        store.log_rehabilitate("P3")
        recovered = store.recover()
        assert set(recovered.advertisements) == {(schema.namespace.uri, "P3")}
        assert recovered.quarantined == set()
        assert recovered.replayed == 5 and recovered.clean

    def test_self_advertisement_overrides_snapshot(self, schema, bases):
        ads = _advertisements(schema, bases)
        store = PeerStateStore(MemoryStore(), "P1")
        store.save_snapshot(bases["P1"], active_schema=ads["P1"])
        store.log_self_advertise(ads["P2"])  # footprint drifted
        assert store.recover().active_schema == ads["P2"]


def _apply(store, events):
    """Drive one (kind, payload) event into a PeerStateStore."""
    for kind, payload in events:
        getattr(store, f"log_{kind}")(payload)


def _event_script(schema, bases):
    ads = _advertisements(schema, bases)
    return [
        ("advertise", ads["P2"]),
        ("advertise", ads["P3"]),
        ("quarantine", "P3"),
        ("advertise", ads["P4"]),
        ("goodbye", "P2"),
        ("rehabilitate", "P3"),
        ("quarantine", "P4"),
    ]


class TestCrashPointProperty:
    def test_kill_at_every_log_boundary_matches_uncrashed_twin(
        self, schema, bases
    ):
        """Crash after the k-th committed record == twin that saw k events."""
        events = _event_script(schema, bases)
        backing = MemoryStore()
        store = PeerStateStore(backing, "P1")
        store.save_snapshot(bases["P1"])
        boundaries = [backing.log_size()]
        for kind, payload in events:
            _apply(store, [(kind, payload)])
            boundaries.append(backing.log_size())
        for k, cut in enumerate(boundaries):
            crashed = backing.clone()
            crashed.truncate_log(cut)
            recovered = PeerStateStore(crashed, "P1").recover()
            twin_backing = MemoryStore()
            twin = PeerStateStore(twin_backing, "P1")
            twin.save_snapshot(bases["P1"])
            _apply(twin, events[:k])
            assert state_digest(recovered) == state_digest(twin.recover()), (
                f"crash after record {k} diverged from the uncrashed twin"
            )
            assert recovered.clean

    def test_kill_mid_record_recovers_the_prefix(self, schema, bases):
        """A torn tail (crash mid-append) is cut back to the last commit."""
        events = _event_script(schema, bases)
        backing = MemoryStore()
        store = PeerStateStore(backing, "P1")
        store.save_snapshot(bases["P1"])
        boundaries = [backing.log_size()]
        for kind, payload in events:
            _apply(store, [(kind, payload)])
            boundaries.append(backing.log_size())
        for cut in range(backing.log_size() + 1):
            crashed = backing.clone()
            crashed.truncate_log(cut)
            k = max(i for i, b in enumerate(boundaries) if b <= cut)
            recovered = PeerStateStore(crashed, "P1").recover()
            twin_backing = MemoryStore()
            twin = PeerStateStore(twin_backing, "P1")
            twin.save_snapshot(bases["P1"])
            _apply(twin, events[:k])
            assert state_digest(recovered) == state_digest(twin.recover()), (
                f"crash at log byte {cut} (prefix {k}) diverged"
            )

    def test_torn_tail_is_repaired_then_appendable(self, schema, bases):
        """Opening over a torn log rewrites the valid prefix, and new
        appends commit cleanly after it."""
        ads = _advertisements(schema, bases)
        backing = MemoryStore()
        store = PeerStateStore(backing, "P1")
        store.log_advertise(ads["P2"])
        store.log_advertise(ads["P3"])
        backing.truncate_log(backing.log_size() - 3)  # torn mid-record
        reopened = PeerStateStore(backing, "P1")
        reopened.log_goodbye("P2")
        recovered = reopened.recover()
        assert recovered.clean
        assert set(recovered.advertisements) == set()
        assert recovered.replayed == 2  # P2 ad + goodbye


class TestFileStore:
    def test_crash_boundaries_on_disk(self, schema, bases, tmp_path):
        """The on-disk store honours the same crash-point oracle."""
        events = _event_script(schema, bases)
        backing = FileStore(tmp_path / "P1")
        store = PeerStateStore(backing, "P1")
        store.save_snapshot(bases["P1"])
        _apply(store, events)
        blob = backing.log_path.read_bytes()
        # crash: a fresh process opens the directory and recovers
        recovered = PeerStateStore(FileStore(tmp_path / "P1"), "P1").recover()
        twin = PeerStateStore(MemoryStore(), "P1")
        twin.save_snapshot(bases["P1"])
        _apply(twin, events)
        assert state_digest(recovered) == state_digest(twin.recover())
        # crash mid-append: truncate the on-disk log, reopen, recover
        backing.log_path.write_bytes(blob[: len(blob) - 5])
        repaired = PeerStateStore(FileStore(tmp_path / "P1"), "P1").recover()
        twin2 = PeerStateStore(MemoryStore(), "P1")
        twin2.save_snapshot(bases["P1"])
        _apply(twin2, events[:-1])
        assert state_digest(repaired) == state_digest(twin2.recover())

    def test_snapshot_replace_is_atomic(self, schema, bases, tmp_path):
        backing = FileStore(tmp_path / "P1")
        store = PeerStateStore(backing, "P1")
        store.save_snapshot(bases["P1"])
        store.save_snapshot(bases["P2"])
        assert not (tmp_path / "P1" / "snapshot.json.tmp").exists()
        assert serialize(store.recover().graph) == serialize(bases["P2"])


class TestIncarnations:
    """Recovery counts salt channel ids: a restarted incarnation must
    never mint a channel id a survivor's replay cache already holds."""

    def test_recover_records_count_incarnations(self):
        store = PeerStateStore(MemoryStore(), "P1")
        assert store.recover().incarnations == 0
        store.log_recover()
        assert store.recover().incarnations == 1
        store.log_recover()
        assert store.recover().incarnations == 2

    def test_incarnations_do_not_perturb_the_digest(self, schema, bases):
        plain = PeerStateStore(MemoryStore(), "P1")
        plain.save_snapshot(bases["P1"])
        restarted = PeerStateStore(MemoryStore(), "P1")
        restarted.save_snapshot(bases["P1"])
        restarted.log_recover()
        assert state_digest(plain.recover()) == state_digest(restarted.recover())

    def test_epoch_keeps_channel_ids_disjoint_across_incarnations(self):
        from repro.channels.manager import ChannelManager

        first_life = ChannelManager("P2")
        reborn = ChannelManager("P2")
        reborn.epoch = 1
        first_ids = {first_life.mint_id() for _ in range(50)}
        reborn_ids = {reborn.mint_id() for _ in range(50)}
        assert not first_ids & reborn_ids
