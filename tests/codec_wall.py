"""The codec wall: a pytest plugin that puts every in-sim message
through the wire codec.

While it is loaded, :meth:`repro.net.simulator.Network.send` delivers
``decode(encode(message))`` in place of each message — the frame a live
link would carry, decoded — so any suite run through it checks that
every payload it sends survives the codec, typed as its dataclass
declares, and that the program behaves the same on what comes out::

    python -m pytest -p tests.codec_wall tests/difftest tests/systems \\
        tests/livedata tests/resilience tests/membership

The terminal summary counts the messages and kinds that crossed.
"""

from collections import Counter
from typing import get_args

from repro.net.simulator import Network
from repro.transport.codec import (
    Payload, decode_frame, decode_message, encode_frame, encode_message,
)

#: kind -> messages put through the codec this session
CROSSED: Counter = Counter()
#: messages whose payload is a test's stand-in (a bare string, ...),
#: no wire kind: they pass as they are
STAND_INS: Counter = Counter()


def pytest_configure(config):
    send, kinds = Network.send, set(get_args(Payload))

    def send_through_the_codec(network, message):
        if type(message.payload) not in kinds:
            STAND_INS[message.kind] += 1
            return send(network, message)
        kind, body = decode_frame(encode_frame("msg", encode_message(message)))
        CROSSED[message.kind] += 1
        send(network, decode_message(body))

    Network.send = send_through_the_codec
    config.add_cleanup(lambda: setattr(Network, "send", send))


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"codec wall: {sum(CROSSED.values())} messages of {len(CROSSED)} kinds "
        f"decoded from their frames: {dict(sorted(CROSSED.items()))}; "
        f"{sum(STAND_INS.values())} stand-in payloads passed as they are"
    )
