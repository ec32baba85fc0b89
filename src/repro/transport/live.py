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

Time: protocol code above the seam thinks in virtual-time units
(latencies around tens of units).  The live transport maps one unit to
``time_scale`` real seconds, so *timers* — retry policies, heartbeat
intervals, deadlines written for the simulator — behave proportionally
on the wire.  *Waiting* is not scaled: :meth:`AsyncioTransport.run_until`
sleeps on one wake event that every dispatched frame, every fired
``schedule()`` action and :meth:`AsyncioTransport.wake` set, so a waiter
resumes when the thing it awaits happens and ``time_scale`` only decides
when it gives up.

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
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import CodecError, NetworkError
from ..resilience.retry import RetryPolicy
from .base import Transport
from .codec import decode_frame, decode_message, encode_frame, encode_message
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


class _Conn:
    """One outbound connection to a process address, with reconnect."""

    def __init__(self, transport: "AsyncioTransport", addr: Address):
        self.transport = transport
        self.addr = addr
        self.outbox: Deque[Tuple[bytes, Optional[object]]] = deque()
        self.kick = asyncio.Event()
        #: set while the pump has nothing it can still write: the outbox
        #: went through ``writer.drain()``, or the connection is lost
        self.idle = asyncio.Event()
        self.idle.set()
        self.closed = False
        self.connected = False
        self.task = transport.loop.create_task(self._pump())

    def enqueue(self, frame: bytes, message=None) -> None:
        self.outbox.append((frame, message))
        self.idle.clear()
        self.kick.set()

    def close(self) -> None:
        self.closed = True
        self.kick.set()
        self.task.cancel()

    async def _pump(self) -> None:
        policy = self.transport.dial_policy.for_peer(f"{self.addr[0]}:{self.addr[1]}")
        attempt = 0
        while not self.closed:
            attempt += 1
            try:
                reader, writer = await asyncio.open_connection(*self.addr)
            except OSError:
                if not policy.attempts_left(attempt + 1):
                    self._give_up()
                    return
                await asyncio.sleep(policy.timeout(attempt) * self.transport.time_scale)
                continue
            attempt = 0
            self.connected = True
            writer.write(pack_frame(self.transport._hello_frame()))
            reader_task = self.transport.loop.create_task(
                self.transport._read_frames(reader, writer)
            )
            reader_task.add_done_callback(lambda _: self.kick.set())
            try:
                while not self.closed and not reader_task.done():
                    while self.outbox:
                        frame, _ = self.outbox[0]
                        writer.write(pack_frame(frame))
                        await writer.drain()
                        self.outbox.popleft()
                    self.idle.set()
                    self.kick.clear()
                    if self.outbox or reader_task.done():
                        continue
                    await self.kick.wait()
            except (ConnectionError, OSError):
                pass  # reconnect with the partially drained outbox
            finally:
                self.connected = False
                self.idle.set()
                reader_task.cancel()
                writer.close()

    def _give_up(self) -> None:
        """Dial budget exhausted: bounce queued messages, forget the conn."""
        self.connected = False
        network = self.transport.network
        while self.outbox:
            _, message = self.outbox.popleft()
            if message is not None and network is not None:
                network.bounce_remote(message)
        self.transport._drop_conn(self)


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
        self.network = None
        self.book: Dict[str, Address] = {}
        self._conns: Dict[Address, _Conn] = {}
        self._inbound: List[asyncio.StreamWriter] = []
        self._held: Dict[str, List[object]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._local_nodes: List[str] = []
        self._started = False
        #: the one wake primitive: set whenever something happened that
        #: can change what a :meth:`run_until` waiter is looking at
        self._wake = asyncio.Event()

    # ------------------------------------------------------------------
    # Transport surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return (self.loop.time() - self._epoch) / self.time_scale

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        self.loop.call_later(max(0.0, delay) * self.time_scale, self._fire, action)

    def _fire(self, action: Callable[[], None]) -> None:
        # a waiter resumes only after this callback returns, so waking
        # first is equivalent and holds even when the action raises
        self._wake.set()
        action()

    def wake(self) -> None:
        """Make a :meth:`run_until` waiter re-check its predicate now.

        For state changed from outside the transport's own frames and
        timers — a signal handler, a callback of another server on this
        loop.  Call it on the loop's thread.
        """
        self._wake.set()

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
            self.loop.run_until_complete(asyncio.sleep(remaining))
        return 0

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` virtual units pass.

        Event-driven: the loop sleeps on the wake event and the predicate
        is re-checked after every wake, so the call returns as soon as
        the frame, timer or :meth:`wake` that makes it true has run.
        Returns ``False`` only at the ``timeout`` deadline.
        """
        self.start()
        return self.loop.run_until_complete(
            self._wait(predicate, self.loop.time() + timeout * self.time_scale)
        )

    async def _wait(self, predicate: Callable[[], bool], deadline: float) -> bool:
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            self._wake.set()

        timer = self.loop.call_at(deadline, expire)
        try:
            while not predicate():
                if expired:
                    return False
                self._wake.clear()
                await self._wake.wait()
            return True
        finally:
            timer.cancel()

    def pending_events(self) -> int:
        queued = sum(len(c.outbox) for c in self._conns.values())
        return queued + sum(len(held) for held in self._held.values())

    def diagnostics_extra(self) -> dict:
        open_sockets = sum(1 for c in self._conns.values() if c.connected)
        open_sockets += sum(1 for w in self._inbound if not w.is_closing())
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
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for node_id in self._local_nodes:
            if self.seed is None:
                self.book[node_id] = self.address
        if self.seed is not None:
            self._conn_for(self.seed).enqueue(self._hello_frame())

    def close(self) -> None:
        """Graceful leave: say bye, flush, tear everything down."""
        if not self._started:
            self.loop.close()
            return
        self.loop.run_until_complete(self._shutdown())
        self._started = False
        self.loop.close()

    async def _shutdown(self) -> None:
        bye = encode_frame("bye", {"nodes": list(self._local_nodes)})
        connected = [conn for conn in self._conns.values() if conn.connected]
        for conn in connected:
            conn.enqueue(bye)
        try:
            await asyncio.wait_for(
                asyncio.gather(*(conn.idle.wait() for conn in connected)),
                DRAIN_TIMEOUT,
            )
        except asyncio.TimeoutError:
            pass  # a wedged peer misses the bye; its dial give-up covers it
        for conn in list(self._conns.values()):
            conn.close()
        for writer in self._inbound:
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # connections and frames
    # ------------------------------------------------------------------
    def _conn_for(self, addr: Address) -> _Conn:
        addr = tuple(addr)
        conn = self._conns.get(addr)
        if conn is None:
            conn = _Conn(self, addr)
            self._conns[addr] = conn
        return conn

    def _drop_conn(self, conn: _Conn) -> None:
        if self._conns.get(conn.addr) is conn:
            del self._conns[conn.addr]

    def _hello_frame(self) -> bytes:
        return encode_frame(
            "hello", {"nodes": list(self._local_nodes), "addr": list(self.address)}
        )

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._inbound.append(writer)
        try:
            await self._read_frames(reader, writer)
        finally:
            if writer in self._inbound:
                self._inbound.remove(writer)
            writer.close()

    async def _read_frames(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = FrameReader()
        while True:
            try:
                chunk = await reader.read(64 * 1024)
            except (ConnectionError, OSError):
                return
            if not chunk:
                return
            try:
                for frame in frames.feed(chunk):
                    self._dispatch(*decode_frame(frame), writer=writer)
            except CodecError:
                return  # a corrupt stream is unrecoverable: drop the conn

    def _dispatch(self, kind: str, body: dict, writer: asyncio.StreamWriter) -> None:
        self._wake.set()  # as in _fire: the waiter runs after this returns
        if kind == "msg":
            if self.network is not None:
                self.network.deliver_remote(decode_message(body))
        elif kind == "hello":
            addr = tuple(body.get("addr", ()))
            if len(addr) == 2:
                for node_id in body.get("nodes", []):
                    self.book[node_id] = addr
            self._flush_held()
            if self.seed is None:
                self._broadcast_book()
        elif kind == "book":
            for node_id, addr in body.get("book", {}).items():
                if node_id not in self._local_nodes:
                    self.book[node_id] = tuple(addr)
            self._flush_held()
        elif kind == "bye":
            for node_id in body.get("nodes", []):
                self.book.pop(node_id, None)
            if self.seed is None:
                self._broadcast_book()
        # unknown frame kinds are ignored: newer peers may send more

    def _broadcast_book(self) -> None:
        frame = pack_frame(
            encode_frame("book", {"book": {n: list(a) for n, a in self.book.items()}})
        )
        for writer in self._inbound:
            if not writer.is_closing():
                writer.write(frame)

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
            if self.network is not None:
                self.network.bounce_remote(message)
