"""In-process integration tests for the asyncio TCP transport.

Two (or more) :class:`AsyncioTransport` instances live in this test
process, each with its own event loop and its own ``Network``; a pump
alternates short run slices between them so real TCP traffic flows on
localhost without spawning OS processes.  The ``run_until`` tests at the
bottom instead run the second transport's loop in a thread, so the
first one can wait for real.  (Full multi-process coverage lives in
``tests/difftest/test_transport.py``.)
"""

import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.net.message import DeliveryFailure, Message
from repro.net.simulator import Network
from repro.peers.base import Peer
from repro.peers.protocol import Goodbye
from repro.resilience.retry import RetryPolicy
from repro.transport.codec import encode_frame, encode_message
from repro.transport.framing import MAX_FRAME_BYTES, pack_frame
from repro.transport.live import DEFAULT_TIME_SCALE, AsyncioTransport

#: Aggressive clock for tests: 200 virtual units per real second.
TIME_SCALE = 0.005


class Probe(Peer):
    """Records every payload it receives."""

    def __init__(self, peer_id):
        super().__init__(peer_id)
        self.received = []
        self.failures = []

    def handle_Goodbye(self, message):
        self.received.append(message.payload)
        self.last_event = time.perf_counter()

    def handle_DeliveryFailure(self, message):
        self.failures.append(message.payload.original)
        self.last_event = time.perf_counter()


def pump(transports, predicate, timeout=3_000.0):
    """Alternate run slices across transports until the predicate holds."""
    budget = timeout
    while not predicate() and budget > 0:
        for transport in transports:
            transport.run(until=transport.now + 5.0)
        budget -= 5.0
    return predicate()


def make_process(node_id, seed=None, time_scale=TIME_SCALE, **options):
    transport = AsyncioTransport(seed=seed, time_scale=time_scale, **options)
    network = Network(seed=0, transport=transport, observability=False)
    probe = Probe(node_id)
    probe.join(network)
    transport.start()
    return transport, network, probe


@pytest.fixture()
def cluster():
    """A seed process and one peer process, joined."""
    transports = []
    try:
        seed_t, seed_net, seed_probe = make_process("A")
        transports.append(seed_t)
        peer_t, peer_net, peer_probe = make_process("B", seed=seed_t.address)
        transports.append(peer_t)
        assert pump(
            transports,
            lambda: "B" in seed_t.book and "A" in peer_t.book,
        ), "bootstrap never completed"
        yield {
            "A": (seed_t, seed_net, seed_probe),
            "B": (peer_t, peer_net, peer_probe),
        }
    finally:
        for transport in transports:
            transport.close()


def test_bootstrap_builds_the_address_book(cluster):
    seed_t = cluster["A"][0]
    peer_t = cluster["B"][0]
    assert seed_t.book["B"] == peer_t.address
    assert peer_t.book["A"] == seed_t.address


def test_messages_flow_both_ways(cluster):
    seed_t, seed_net, seed_probe = cluster["A"]
    peer_t, peer_net, peer_probe = cluster["B"]
    seed_net.send(Message("A", "B", Goodbye("A")))
    peer_net.send(Message("B", "A", Goodbye("B")))
    assert pump(
        [seed_t, peer_t],
        lambda: seed_probe.received and peer_probe.received,
    )
    assert peer_probe.received == [Goodbye("A")]
    assert seed_probe.received == [Goodbye("B")]


def test_graceful_bye_leaves_the_book(cluster):
    seed_t = cluster["A"][0]
    peer_t = cluster["B"][0]
    peer_t.close()
    assert pump([seed_t], lambda: "B" not in seed_t.book)


def test_unknown_destination_bounces_after_grace(cluster):
    seed_t, seed_net, seed_probe = cluster["A"]
    peer_t = cluster["B"][0]
    seed_net.send(Message("A", "nobody", Goodbye("A")))
    assert pump([seed_t, peer_t], lambda: seed_probe.failures)
    assert seed_probe.failures[0].dst == "nobody"
    assert isinstance(seed_probe.failures[0].payload, Goodbye)


def test_dead_address_bounces_after_dial_retries(cluster):
    seed_t, seed_net, seed_probe = cluster["A"]
    peer_t = cluster["B"][0]
    # a victim process that joins, then dies without saying bye
    victim_t, victim_net, _ = make_process("V", seed=seed_t.address)
    assert pump([seed_t, peer_t, victim_t], lambda: "V" in seed_t.book)
    victim_port = victim_t.address[1]
    # tear the victim's sockets down WITHOUT the graceful bye
    for conn in list(victim_t._conns.values()):
        conn.close()
    for writer in victim_t._inbound:
        writer.close()
    victim_t._server.close()
    victim_t.loop.run_until_complete(victim_t._server.wait_closed())
    victim_t.loop.close()
    assert seed_t.book.get("V") == ("127.0.0.1", victim_port)  # stale entry
    seed_net.send(Message("A", "V", Goodbye("A")))
    assert pump([seed_t, peer_t], lambda: seed_probe.failures, timeout=20_000.0)
    assert seed_probe.failures[0].dst == "V"


def test_metrics_meter_on_the_sending_process(cluster):
    seed_t, seed_net, _ = cluster["A"]
    peer_t, peer_net, peer_probe = cluster["B"]
    before = seed_net.metrics.messages_total
    seed_net.send(Message("A", "B", Goodbye("A")))
    assert pump([seed_t, peer_t], lambda: peer_probe.received)
    # each process meters what it sends; a cluster-wide view comes from
    # merging the per-process expositions (python -m repro metrics --merge)
    assert seed_net.metrics.messages_total == before + 1
    assert seed_net.metrics.messages_by_kind.get("Goodbye")


# ----------------------------------------------------------------------
# run_until: event-driven waiting
# ----------------------------------------------------------------------
#: Real seconds of the 5-unit poll run_until used to sleep between looks
#: at its predicate.  These tests run on the default clock so that the
#: quantum (100 ms) dwarfs scheduler noise: whatever must happen "at
#: once" is asserted to take under half of it.
OLD_QUANTUM = 5.0 * DEFAULT_TIME_SCALE


class ThreadedProcess:
    """A peer process whose loop runs in a thread: it serves, node-style,
    in ``run_until(stopping)`` until :meth:`stop` wakes it."""

    def __init__(self, node_id, seed):
        self.transport, self.network, self.probe = make_process(
            node_id, seed=seed, time_scale=DEFAULT_TIME_SCALE
        )
        self.stopping = []
        self.stopped_cleanly = None
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        self.stopped_cleanly = self.transport.run_until(
            lambda: bool(self.stopping), timeout=3_000.0
        )
        self.transport.close()

    def call(self, action):
        """Run ``action`` on the process's loop (asyncio is not thread-safe)."""
        self.transport.loop.call_soon_threadsafe(action)

    def stop(self):
        def _stop():
            self.stopping.append(True)
            self.transport.wake()

        self.call(_stop)
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "threaded process never stopped"


@pytest.fixture()
def waiter():
    """A seed process on this thread, on the default clock."""
    transport, network, probe = make_process("A", time_scale=DEFAULT_TIME_SCALE)
    try:
        yield transport, network, probe
    finally:
        transport.close()


def test_run_until_returns_when_the_awaited_message_arrives(waiter):
    seed_t, _, seed_probe = waiter
    remote = ThreadedProcess("B", seed=seed_t.address)
    try:
        assert seed_t.run_until(lambda: "B" in seed_t.book, timeout=500.0)
        def send():
            remote.network.send(Message("B", "A", Goodbye("B")))

        # sent a tenth of a quantum into the wait: a poller would sleep
        # out the other nine tenths before looking
        remote.call(lambda: remote.transport.loop.call_later(OLD_QUANTUM / 10, send))
        started = time.perf_counter()
        assert seed_t.run_until(lambda: seed_probe.received, timeout=500.0)
        returned = time.perf_counter()
    finally:
        remote.stop()
    assert seed_probe.received == [Goodbye("B")]
    assert returned - seed_probe.last_event < OLD_QUANTUM / 2
    assert returned - started < OLD_QUANTUM / 2
    # the remote's own lifetime wait ended by its explicit wake, not its deadline
    assert remote.stopped_cleanly is True


def test_run_until_with_a_true_predicate_does_not_sleep(waiter):
    seed_t = waiter[0]
    started = time.perf_counter()
    assert seed_t.run_until(lambda: True, timeout=500.0)
    assert time.perf_counter() - started < OLD_QUANTUM / 10


def test_run_until_gives_up_at_the_deadline_and_not_before(waiter):
    seed_t = waiter[0]
    timeout = 7.0  # virtual units; deliberately not a multiple of the old poll
    started = time.perf_counter()
    assert seed_t.run_until(lambda: False, timeout=timeout) is False
    elapsed = time.perf_counter() - started
    assert timeout * DEFAULT_TIME_SCALE <= elapsed < timeout * DEFAULT_TIME_SCALE + OLD_QUANTUM / 2


def test_dial_give_up_wakes_the_waiter_through_the_bounce():
    # two quick dial attempts: the give-up lands ~1 virtual unit into
    # the wait, nowhere near a 5-unit tick
    policy = RetryPolicy(max_attempts=2, base_timeout=1.0)
    seed_t, seed_net, seed_probe = make_process(
        "A", time_scale=DEFAULT_TIME_SCALE, dial_policy=policy
    )
    try:
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            dead = placeholder.getsockname()  # bound, never listening
            seed_t.book["V"] = dead
            seed_net.send(Message("A", "V", Goodbye("A")))
            started = time.perf_counter()
            assert seed_t.run_until(lambda: seed_probe.failures, timeout=500.0)
            returned = time.perf_counter()
    finally:
        seed_t.close()
    assert seed_probe.failures[0].dst == "V"
    assert returned - seed_probe.last_event < OLD_QUANTUM / 2
    assert returned - started < OLD_QUANTUM / 2


def test_signal_handler_wake_ends_a_lifetime_wait(waiter):
    seed_t = waiter[0]
    stopping = []

    def _stop():
        stopping.append(True)
        seed_t.wake()

    seed_t.loop.add_signal_handler(signal.SIGUSR1, _stop)
    timer = threading.Timer(
        OLD_QUANTUM / 10, os.kill, (os.getpid(), signal.SIGUSR1)
    )
    try:
        started = time.perf_counter()
        timer.start()
        assert seed_t.run_until(lambda: bool(stopping), timeout=30_000.0)
        elapsed = time.perf_counter() - started
    finally:
        timer.cancel()
        seed_t.loop.remove_signal_handler(signal.SIGUSR1)
    assert elapsed < OLD_QUANTUM / 2


# ----------------------------------------------------------------------
# a frame that does not decode drops its connection, not the node
# ----------------------------------------------------------------------
def test_a_frame_naming_an_unknown_schema_is_counted_and_the_node_answers_on(tmp_path):
    """A ``RouteRequest`` whose pattern names a schema fingerprint no
    node of the super-peer's process holds is a ``CodecError``: the
    super-peer drops that connection, counts ``malformed_frames``, and
    routes the next query as before."""
    import json
    import re

    from repro.deploy import ClusterSpec, LiveCluster
    from repro.peers.protocol import RouteRequest
    from repro.rql.pattern import pattern_from_text
    from repro.transport.codec import encode_frame, encode_message
    from repro.transport.framing import pack_frame

    spec = ClusterSpec(seed=1, peers=2, super_peers=1)
    (super_peer,) = spec.super_ids()
    cluster = LiveCluster(spec, tmp_path / "run")
    text = cluster.workload.queries[0]
    pattern = pattern_from_text(text, cluster.workload.synthetic.schema)
    body = json.loads(json.dumps(encode_message(
        Message("P1", super_peer, RouteRequest("hostile", pattern, "P1"))
    )))
    body["payload"]["f"]["pattern"]["f"][0] = "A" * 43  # no such schema
    try:
        cluster.start()
        healthy = cluster.query("P1", text)
        with socket.create_connection(cluster.transport.book[super_peer]) as sock:
            sock.sendall(pack_frame(encode_frame("msg", body)))
            sock.settimeout(10.0)
            while sock.recv(4096):  # until the super-peer hangs up on it
                pass
        after = cluster.query("P1", text)
    finally:
        summary = cluster.shutdown()
    assert healthy.error is None and after.error is None
    assert after.table == healthy.table and len(after.table) > 0
    assert all(code == 0 for code in summary["exit_codes"].values()), summary
    exposition = (tmp_path / "run" / f"{super_peer}.metrics.prom").read_text()
    (count,) = re.findall(r"^repro_malformed_frames_total\{.*\} (\S+)$", exposition, re.M)
    assert float(count) == 1


# ----------------------------------------------------------------------
# the hostile-frame wall: raw sockets against one live super-peer
# ----------------------------------------------------------------------
def _route_request(cluster, super_peer, text):
    """A well-formed ``RouteRequest`` frame, as P1 would send it."""
    from repro.peers.protocol import RouteRequest
    from repro.rql.pattern import pattern_from_text

    pattern = pattern_from_text(text, cluster.workload.synthetic.schema)
    message = Message("P1", super_peer, RouteRequest("hostile", pattern, "P1"))
    return pack_frame(encode_frame("msg", encode_message(message)))


#: case -> (the bytes sent, given a valid RouteRequest frame; how many
#: malformed frames they hold; whether they go one byte per send)
HOSTILE = {
    "length-over-max": (
        lambda valid: struct.pack(">I", MAX_FRAME_BYTES + 1) + b"{}", 1, False),
    "cut-off-by-eof": (lambda valid: valid[:-7], 1, False),
    "invalid-utf8": (lambda valid: pack_frame(b'{"kind":"\xff\xfe"}'), 1, False),
    "invalid-json": (lambda valid: pack_frame(b'{"kind":"msg",'), 1, False),
    "not-an-object": (lambda valid: pack_frame(b'["msg",{}]'), 1, False),
    "no-kind": (lambda valid: pack_frame(b'{"body":{}}'), 1, False),
    "body-not-an-object": (
        lambda valid: pack_frame(b'{"kind":"hello","body":[]}'), 1, False),
    "hello-junk-address": (lambda valid: pack_frame(
        b'{"kind":"hello","body":{"nodes":["P9"],"addr":[1,2]}}'), 1, False),
    "hello-nodes-not-a-list": (lambda valid: pack_frame(
        b'{"kind":"hello","body":{"nodes":5,"addr":["127.0.0.1",9]}}'), 1, False),
    "book-not-an-object": (
        lambda valid: pack_frame(b'{"kind":"book","body":{"book":[]}}'), 1, False),
    "book-junk-address": (lambda valid: pack_frame(
        b'{"kind":"book","body":{"book":{"P9":"nowhere"}}}'), 1, False),
    "bye-nodes-not-a-list": (
        lambda valid: pack_frame(b'{"kind":"bye","body":{"nodes":5}}'), 1, False),
    "unknown-kind": (
        lambda valid: pack_frame(b'{"kind":"gossip","body":{"x":1}}'), 0, False),
    "route-request-byte-by-byte": (lambda valid: valid, 0, True),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_frame_drops_only_its_connection(tmp_path, case):
    """Every malformed stream costs its sender the connection, adds one
    to ``malformed_frames`` and leaves a ``malformed_frame`` event in
    the node's flight recorder; a frame of an unknown kind is ignored
    and a valid one dribbled in a byte at a time is routed.  Either
    way the super-peer routes the next query as before."""
    import json
    import re

    from repro.deploy import ClusterSpec, LiveCluster

    build, malformed, byte_by_byte = HOSTILE[case]
    spec = ClusterSpec(seed=1, peers=2, super_peers=1)
    (super_peer,) = spec.super_ids()
    cluster = LiveCluster(spec, tmp_path / "run")
    text = cluster.workload.queries[0]
    data = build(_route_request(cluster, super_peer, text))
    try:
        cluster.start()
        healthy = cluster.query("P1", text)
        with socket.create_connection(cluster.transport.book[super_peer]) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for piece in ([data[i:i + 1] for i in range(len(data))]
                          if byte_by_byte else [data]):
                sock.sendall(piece)
            if not malformed:
                sock.settimeout(0.3)  # the node keeps this connection open
                with pytest.raises(socket.timeout):
                    sock.recv(1)
            if case == "cut-off-by-eof" or not malformed:
                sock.shutdown(socket.SHUT_WR)
            sock.settimeout(10.0)
            try:
                while sock.recv(4096):  # until the super-peer hangs up
                    pass
            except ConnectionResetError:
                pass  # it hung up on bytes it had not read
        after = cluster.query("P1", text)
    finally:
        summary = cluster.shutdown()
    assert healthy.error is None and after.error is None
    assert after.table == healthy.table and len(after.table) > 0
    assert all(code == 0 for code in summary["exit_codes"].values()), summary
    run = tmp_path / "run"
    exposition = (run / f"{super_peer}.metrics.prom").read_text()
    (count,) = re.findall(r"^repro_malformed_frames_total\{.*\} (\S+)$", exposition, re.M)
    assert float(count) == malformed
    events = [json.loads(line)
              for line in (run / f"{super_peer}.events.jsonl").read_text().splitlines()]
    dropped = [e for e in events if e["kind"] == "malformed_frame"]
    assert len(dropped) == malformed and all(e["reason"] for e in dropped)
    (replies,) = re.findall(
        r'^repro_messages_by_kind_total\{kind="RouteReply",.*\} (\S+)$', exposition, re.M
    )
    # the two queries' replies, plus one to the dribbled RouteRequest
    assert float(replies) == 2 + (case == "route-request-byte-by-byte")
