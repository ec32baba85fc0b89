"""The real-network transport: asyncio TCP with length-prefixed JSON.

One :class:`AsyncioTransport` serves one OS process.  It hosts that
process's local peers (registered on the owning
:class:`~repro.net.simulator.Network` exactly as in-sim), listens on a
TCP port, and moves messages addressed beyond the process over duplex
socket connections carrying :mod:`repro.transport.framing` frames.

Bootstrap follows the seed pattern: the first process (normally the
launcher) *is* the seed and owns the authoritative address book
(``node_id -> (host, port)``); every other process dials the seed on
startup, announces its local nodes with a ``hello`` frame, and receives
``book`` broadcasts as the membership changes.  Data connections are
then opened peer-process to peer-process on demand.

Each socket runs an :class:`asyncio.Protocol` that dispatches frames
as ``data_received`` completes them; outgoing frames are written
straight to the socket.

Time: protocol code above the seam thinks in virtual-time units
(latencies around tens of units).  The live transport maps one unit to
``time_scale`` real seconds, so *timers* — retry policies, heartbeat
intervals, deadlines written for the simulator — behave proportionally
on the wire.  *Waiting* is not scaled: :meth:`AsyncioTransport.run_until`
waits on one future, resolved by the dispatched frames, fired
``schedule()`` action or :meth:`AsyncioTransport.wake` that make its
predicate true, so a waiter resumes when the thing it awaits happens
and ``time_scale`` only decides when it gives up.

Failure semantics mirror the simulator's omniscient bounces: when a
destination process is unreachable (connect retries exhausted, governed
by a :class:`~repro.resilience.retry.RetryPolicy`) or unknown after a
grace period, every queued message is handed back through
``network.bounce_remote`` as a
:class:`~repro.net.message.DeliveryFailure` — the same signal a chaos
run produces in-sim, so channels replan and queries degrade to
coverage-annotated partial answers identically.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Deque, Dict, Iterator, Optional, Tuple

from ..errors import CodecError, NetworkError
from ..rdf.schema import Schema
from ..resilience.retry import RetryPolicy
from .base import Transport
from .codec import decode_as, decode_frame, decode_message, encode_frame, encode_message
from .framing import FrameReader, pack_frame

Address = Tuple[str, int]

#: Default mapping of one virtual-time unit to real seconds.
DEFAULT_TIME_SCALE = 0.02

#: Default dial policy: ~4 quick attempts before messages bounce.
DEFAULT_DIAL_POLICY = RetryPolicy(
    max_attempts=4, base_timeout=8.0, backoff=2.0, max_timeout=64.0
)

#: Real seconds :meth:`AsyncioTransport.close` gives connected peers'
#: outboxes to drain the byes (a wedged peer must not hold up an exit).
DRAIN_TIMEOUT = 0.25


class _Link(asyncio.Protocol):
    """The protocol on a socket to another process: each frame a
    ``data_received`` chunk completes is dispatched there and then.

    An accepted link lives as long as its socket.  A dialled one
    (``addr`` set) serves every socket it dials: its outbox holds frames
    only while dialling or paused, and survives a redial.
    """

    def __init__(self, owner: "AsyncioTransport", addr: Optional[Address] = None):
        self.owner = owner
        self.addr = addr
        self.outbox: Deque[Tuple[bytes, Optional[object]]] = deque()
        self.socket: Optional[asyncio.Transport] = None
        self.frames = FrameReader()
        self.paused = self.closed = False
        self.task = owner.loop.create_task(self._dial()) if addr else None

    def connection_made(self, socket: asyncio.Transport) -> None:
        self.socket, self.frames, self.paused = socket, FrameReader(), False
        if self.addr is None:
            self.owner._inbound.append(socket)
        else:
            socket.write(pack_frame(self.owner._hello_frame()))
            self.flush()

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self.frames.feed(data):
                self.owner._dispatch(*decode_frame(frame))
        except CodecError as exc:
            self._drop(str(exc))  # a corrupt stream is unrecoverable
        finally:
            self.owner._check()

    def eof_received(self) -> None:
        if self.frames.pending_bytes():
            self._drop("connection ended inside a frame")

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # a reset mid-frame; a hang-up of our own passes ``exc=None``
        if isinstance(exc, OSError) and self.frames.pending_bytes():
            self._drop("connection ended inside a frame")
        if self.addr is None:
            self.owner._inbound.remove(self.socket)
        elif not self.closed:
            self.task = self.owner.loop.create_task(self._dial())
        self.socket = None
        self.owner._check()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.flush()
        self.owner._check()  # a close() may be waiting for the outbox

    def enqueue(self, frame: bytes, message=None) -> None:
        self.outbox.append((frame, message))
        self.flush()

    def flush(self) -> None:
        socket = self.socket
        while self.outbox and socket is not None and not self.paused:
            if socket.is_closing():
                return  # connection_lost follows, then the redial
            socket.write(pack_frame(self.outbox.popleft()[0]))

    def close(self) -> None:
        self.closed = True
        self.task.cancel()
        if self.socket is not None:
            self.socket.close()

    def _drop(self, reason: str) -> None:
        """Count the unreadable frame once and hang up on its sender."""
        self.frames = FrameReader()
        network = self.owner.network
        if network is not None:
            network.metrics.count("malformed_frames")
            network.emit_event("malformed_frame", reason=reason)
        self.socket.close()

    async def _dial(self) -> None:
        owner = self.owner
        policy = owner.dial_policy.for_peer(f"{self.addr[0]}:{self.addr[1]}")
        attempt = 1
        while True:
            try:
                await owner.loop.create_connection(lambda: self, *self.addr)
                return
            except OSError:
                if not policy.attempts_left(attempt + 1):
                    break
                await asyncio.sleep(policy.timeout(attempt) * owner.time_scale)
                attempt += 1
        # dial budget exhausted: bounce queued messages, forget the link
        while self.outbox:
            _, message = self.outbox.popleft()
            if message is not None and owner.network is not None:
                owner.network.bounce_remote(message)
        if owner._conns.get(self.addr) is self:
            del owner._conns[self.addr]


class AsyncioTransport(Transport):
    """TCP transport for one process of a live deployment.

    Args:
        host: Interface to listen on.
        port: Listening port (0 picks a free one; see :attr:`address`
            after :meth:`start`).
        seed: ``(host, port)`` of the seed process, or ``None`` when
            this process *is* the seed and owns the address book.
        time_scale: Real seconds per virtual-time unit.
        dial_policy: Retry policy for dialing a process address before
            queued messages bounce.
        hold_unroutable: Virtual-time grace for messages to a node not
            yet in the address book (covers bootstrap races).
    """

    kind = "asyncio"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        seed: Optional[Address] = None,
        time_scale: float = DEFAULT_TIME_SCALE,
        dial_policy: Optional[RetryPolicy] = None,
        hold_unroutable: float = 50.0,
    ):
        self.host = host
        self.port = port
        self.seed = tuple(seed) if seed else None
        self.time_scale = time_scale
        self.dial_policy = dial_policy or DEFAULT_DIAL_POLICY
        self.hold_unroutable = hold_unroutable
        self.loop = asyncio.new_event_loop()
        self._epoch = self.loop.time()
        self.book: Dict[str, Address] = {}
        self._conns: Dict[Address, _Link] = {}
        self._inbound: List[asyncio.Transport] = []
        self._held: Dict[str, List[object]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._local_nodes: List[str] = []
        self._started = False
        #: ``(predicate, future)`` of the wait in progress: whatever can
        #: make the predicate true calls :meth:`_check` after it runs
        self._waiter: Optional[Tuple[Callable[[], bool], asyncio.Future]] = None

    # ------------------------------------------------------------------
    # Transport surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return (self.loop.time() - self._epoch) / self.time_scale

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        self.loop.call_later(max(0.0, delay) * self.time_scale, self._fire, action)

    def _fire(self, action: Callable[[], None]) -> None:
        try:
            action()
        finally:
            self._check()

    def wake(self) -> None:
        """Make a :meth:`run_until` waiter re-check its predicate now.

        For state changed from outside the transport's own frames and
        timers — a signal handler, a callback of another server on this
        loop.  Call it on the loop's thread.
        """
        self._check()

    def routes(self, dst: str) -> bool:
        return True  # optimistic: unknown nodes get the hold-then-bounce path

    def on_register(self, node) -> None:
        self._local_nodes.append(node.peer_id)
        if self.seed is None:
            self.book[node.peer_id] = self.address
            if self._started:
                self._broadcast_book()
        elif self._started:
            self._conn_for(self.seed).enqueue(self._hello_frame())

    def transmit_remote(self, message) -> None:
        addr = self.book.get(message.dst)
        if addr is None:
            self._held.setdefault(message.dst, []).append(message)
            self.schedule(self.hold_unroutable, lambda: self._expire_held(message))
            return
        frame = encode_frame("msg", encode_message(message))
        self._conn_for(addr).enqueue(frame, message)

    def run(self, max_events: int = 1_000_000, until: Optional[float] = None) -> int:
        """Drive the asyncio loop until the ``until`` virtual-time mark.

        Unlike the simulator there is no event budget to exhaust — real
        time, not an event count, bounds the run — so ``max_events`` is
        accepted for interface compatibility and ignored.
        """
        if until is None:
            raise NetworkError("the live transport needs a deadline (until=...)")
        self.start()
        remaining = (until - self.now) * self.time_scale
        if remaining > 0:
            self._wait(lambda: False, remaining)
        return 0

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` virtual units pass.

        Event-driven: the predicate is re-checked after every dispatched
        chunk of frames, fired timer and :meth:`wake`, so the call
        returns as soon as the one that makes it true has run.  Returns
        ``False`` only at the ``timeout`` deadline.
        """
        return self._wait(predicate, timeout * self.time_scale)

    def _wait(self, predicate: Callable[[], bool], seconds: float) -> bool:
        self.start()
        if predicate():
            return True
        done = self.loop.create_future()
        self._waiter = (predicate, done)
        deadline = self.loop.call_later(
            seconds, lambda: done.done() or done.set_result(False)
        )
        try:
            return self.loop.run_until_complete(done)
        finally:
            deadline.cancel()
            self._waiter = None

    def _check(self) -> None:
        """Resolve the wait in progress once its predicate holds."""
        if self._waiter is None or self._waiter[1].done():
            return
        predicate, done = self._waiter
        try:
            if predicate():
                done.set_result(True)
        except Exception as exc:  # raised out of run_until, as before
            done.set_exception(exc)

    def pending_events(self) -> int:
        queued = sum(len(c.outbox) for c in self._conns.values())
        return queued + sum(len(held) for held in self._held.values())

    def diagnostics_extra(self) -> dict:
        open_sockets = sum(1 for c in self._conns.values() if c.socket)
        open_sockets += sum(1 for s in self._inbound if not s.is_closing())
        return {"open_sockets": open_sockets, "address_book_size": len(self.book)}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return (self.host, self.port)

    def start(self) -> Address:
        """Bind the server, join the seed; returns the bound address."""
        if self._started:
            return self.address
        self.loop.run_until_complete(self._start())
        self._started = True
        return self.address

    async def _start(self) -> None:
        self._server = await self.loop.create_server(
            lambda: _Link(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.seed is None:
            self.book.update(dict.fromkeys(self._local_nodes, self.address))
        else:
            self._conn_for(self.seed).enqueue(self._hello_frame())

    def close(self) -> None:
        """Graceful leave: say bye, flush, tear everything down."""
        if self._started:
            bye = encode_frame("bye", {"nodes": list(self._local_nodes)})
            connected = [conn for conn in self._conns.values() if conn.socket]
            for conn in connected:
                conn.enqueue(bye)
            # a wedged peer misses the bye; its dial give-up covers it
            self._wait(
                lambda: all(not c.outbox or not c.socket for c in connected),
                DRAIN_TIMEOUT,
            )
            self.loop.run_until_complete(self._shutdown())
            self._started = False
        self.loop.close()

    async def _shutdown(self) -> None:
        for conn in list(self._conns.values()):
            conn.close()
        for socket in self._inbound:
            socket.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # connections and frames
    # ------------------------------------------------------------------
    def _conn_for(self, addr: Address) -> _Link:
        addr = tuple(addr)
        conn = self._conns.get(addr)
        if conn is None:
            conn = _Link(self, addr)
            self._conns[addr] = conn
        return conn

    def _hello_frame(self) -> bytes:
        return encode_frame(
            "hello", {"nodes": list(self._local_nodes), "addr": list(self.address)}
        )

    def _dispatch(self, kind: str, body: dict) -> None:
        if kind == "msg":
            network = self.network
            if network is not None:
                network.deliver_remote(decode_message(body, self._held_schemas()))
        elif kind == "hello":
            addr = decode_as(Address, body.get("addr"))
            for node_id in decode_as(Tuple[str, ...], body.get("nodes", [])):
                self.book[node_id] = addr
            self._flush_held()
            if self.seed is None:
                self._broadcast_book()
        elif kind == "book":
            for node_id, addr in decode_as(Dict[str, Address], body.get("book", {})).items():
                if node_id not in self._local_nodes:
                    self.book[node_id] = addr
            self._flush_held()
        elif kind == "bye":
            for node_id in decode_as(Tuple[str, ...], body.get("nodes", [])):
                self.book.pop(node_id, None)
            if self.seed is None:
                self._broadcast_book()
        # unknown frame kinds are ignored: newer peers may send more

    def _held_schemas(self) -> Iterator[Schema]:
        """The community schemas this process's nodes hold in their SON
        registries: the ones a pattern arriving here may name."""
        for node_id in self._local_nodes:
            sons = self.network.node(node_id).sons
            if sons is not None:
                yield from sons.schemas()

    def _broadcast_book(self) -> None:
        frame = pack_frame(
            encode_frame("book", {"book": {n: list(a) for n, a in self.book.items()}})
        )
        for socket in self._inbound:
            if not socket.is_closing():
                socket.write(frame)

    # ------------------------------------------------------------------
    # unroutable handling
    # ------------------------------------------------------------------
    def _flush_held(self) -> None:
        for dst in list(self._held):
            if dst in self.book:
                for message in self._held.pop(dst):
                    self.transmit_remote(message)

    def _expire_held(self, message) -> None:
        held = self._held.get(message.dst, [])
        if message in held:
            held.remove(message)
            network = self.network
            if network is not None:
                network.bounce_remote(message)
