"""Node processes forked from one warm template process.

Starting a node as a fresh ``python -m repro peer`` costs a cold
interpreter: importing (and, without byte-code, compiling) the package
takes far longer than the node's own bring-up.  So the launcher starts
one *template* process per environment instead — ``python -c`` that
imports :mod:`repro.cli` once, freezes the garbage collector's view of
those objects, and then serves fork requests:

* the launcher writes one JSON line per node, ``{"argv": [...],
  "cwd": ..., "env": {...}}``, with the arguments of ``python -m
  repro`` (a :meth:`~repro.deploy.launcher.LiveCluster.node_argv`
  minus its first three words);
* the template ``fork()``s a child that runs ``repro.cli.main(argv)``
  with its stdio on ``/dev/null`` — the same parser and ``run_node``
  as a hand-started node — and answers ``{"spawned": pid}``;
* it reaps children in its ``select`` loop (``SIGCHLD`` only wakes it,
  through :func:`signal.set_wakeup_fd`) and reports ``{"pid": pid,
  "exited": code}``, ``code`` being ``-N`` for signal ``N`` as
  :class:`subprocess.Popen` reports it;
* when its stdin closes — the launcher exited, or was killed — or it is
  sent SIGTERM, it SIGTERMs the nodes still running, waits for them
  (SIGKILL after :data:`STOP_GRACE` seconds) and exits.

A fork shares the template's interpreter, so every node of one template
has the template's ``PYTHONHASHSEED`` and ``sys.path``: a template is
kept per set of ``PYTHON*`` variables (what the interpreter reads as it
starts), and each request carries the node's whole environment.
:class:`NodeProcess` is the handle the launcher keeps per node, with
the part of ``Popen``'s surface the launcher, the supervisor and
scenario playback use.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from ..errors import NetworkError

#: Seconds a stopping template gives its nodes to exit after SIGTERM
#: before it SIGKILLs them.
STOP_GRACE = 10.0
#: What the template process runs.
_SERVE = "from repro.deploy.template import serve; serve()"


class NodeProcess:
    """One node forked by a :class:`NodeTemplate`.

    ``pid``, ``args``, ``returncode`` (``None`` while running, the exit
    status, or ``-N`` after signal ``N``), :meth:`poll`, :meth:`wait`,
    :meth:`send_signal` and :meth:`kill` behave as
    :class:`subprocess.Popen`'s; the status comes from the template,
    which is the node's parent.
    """

    def __init__(self, template: "NodeTemplate", pid: int, args: List[str]):
        self.pid = pid
        self.args = args
        self.returncode: Optional[int] = None
        self._template = template

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            self._template.collect(0.0)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.returncode is None:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise subprocess.TimeoutExpired(self.args, timeout)
            self._template.collect(remaining)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass  # exited; its status is on the way

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class NodeTemplate:
    """The launcher's side of one template process: forks nodes from
    it and keeps each one's :class:`NodeProcess` up to date."""

    def __init__(self, env: Dict[str, str]):
        # stdout is the report pipe and stderr goes nowhere: a template
        # must never hold a caller's terminal or pipeline open
        self.process = subprocess.Popen(
            [sys.executable, "-c", _SERVE], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.alive = True
        self._pending = b""
        self._nodes: Dict[int, NodeProcess] = {}
        #: the argv being forked, and its node once the template answers
        self._argv: List[str] = []
        self._forked: Optional[NodeProcess] = None

    def fork(self, argv: List[str], env: Dict[str, str]) -> Optional[NodeProcess]:
        """Start the node ``argv`` (``python -m repro ...``) describes,
        in environment ``env``; ``None`` if the template has exited."""
        if not self.alive:
            return None
        request = {"argv": argv[3:], "cwd": os.getcwd(), "env": env}
        self._argv = argv
        try:
            self.process.stdin.write(json.dumps(request).encode() + b"\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            self._lost()
        while self.alive and self._forked is None:
            self.collect(None)
        node, self._forked = self._forked, None
        return node

    def collect(self, timeout: Optional[float]) -> None:
        """Apply what the template reports within ``timeout`` seconds
        (``None``: wait until it reports something)."""
        if not self.alive:
            return
        fd = self.process.stdout.fileno()
        if not select.select([fd], [], [], timeout)[0]:
            return
        chunk = os.read(fd, 65536)
        if not chunk:
            self._lost()
            return
        *lines, self._pending = (self._pending + chunk).split(b"\n")
        for line in lines:
            record = json.loads(line)
            if "spawned" in record:
                pid = record["spawned"]
                self._forked = self._nodes[pid] = NodeProcess(self, pid, self._argv)
            else:
                self._nodes.pop(record["pid"]).returncode = record["exited"]

    def _lost(self) -> None:
        """The template is gone: its unreported nodes go with it."""
        self.alive = False
        for node in self._nodes.values():
            try:
                os.kill(node.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            node.returncode = -signal.SIGKILL
        self._nodes.clear()

    def close(self) -> None:
        """Close the template's stdin and wait until it has stopped its
        nodes and exited."""
        try:
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        while self.alive:
            self.collect(None)
        self.process.wait()
        self.process.stdout.close()


_TEMPLATES: Dict[Tuple[Tuple[str, str], ...], NodeTemplate] = {}


def fork_node(argv: List[str], env: Dict[str, str]) -> NodeProcess:
    """Start node ``argv`` from the template process for ``env``,
    starting that template on first use; every template is closed when
    this process exits."""
    key = tuple(sorted(
        (name, value) for name, value in env.items() if name.startswith("PYTHON")
    ))
    template = _TEMPLATES.get(key)
    node = None if template is None else template.fork(argv, env)
    if node is None:
        # none yet, or it exited (was SIGTERMed, say) since the last fork
        if template is not None:
            template.close()
        template = _TEMPLATES[key] = NodeTemplate(env)
        node = template.fork(argv, env)
    if node is None:
        raise NetworkError("the node template process exited at start")
    return node


@atexit.register
def close_templates() -> None:
    """Close every template this process started (and their nodes)."""
    while _TEMPLATES:
        _TEMPLATES.popitem()[1].close()


# ----------------------------------------------------------------------
# the template process
# ----------------------------------------------------------------------
def _report(record: Dict[str, int]) -> None:
    try:
        os.write(1, json.dumps(record).encode() + b"\n")
    except BrokenPipeError:
        pass  # the launcher is gone; stdin's EOF stops the loop


def _reap(children: set, flags: int = os.WNOHANG) -> None:
    while children:
        pid, status = os.waitpid(-1, flags)
        if pid == 0:
            return
        children.discard(pid)
        _report({"pid": pid, "exited": os.waitstatus_to_exitcode(status)})


def _run_node(request: Dict[str, object], wakeup: Tuple[int, int]) -> None:
    """The forked child: a node process, never back in the loop."""
    code = 1
    try:
        for fd in wakeup:
            os.close(fd)
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        null = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(null, fd)
        os.close(null)
        os.chdir(request["cwd"])
        os.environ.clear()
        os.environ.update(request["env"])
        from .. import cli

        code = cli.main(request["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        # whatever happened, the child ends here: returning (or
        # raising) would run the template's loop in the node
        os._exit(code)


def serve() -> None:
    """The template process's main loop (see the module docstring)."""
    from .. import cli  # noqa: F401 -- what every node runs, imported once

    # a terminal's Ctrl-C reaches the launcher and the nodes; the
    # template stops when its stdin closes, after the launcher is done
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    wakeup = os.pipe()
    for fd in wakeup:
        os.set_blocking(fd, False)
    signal.set_wakeup_fd(wakeup[1])
    # the handlers only wake the select below; the loop does the work
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    signal.signal(signal.SIGTERM, lambda signum, frame: None)
    gc.freeze()  # collections in a node do not touch the shared pages
    children: set = set()
    pending = b""
    running = True
    while running:
        readable = select.select([0, wakeup[0]], [], [])[0]
        if wakeup[0] in readable:
            running = signal.SIGTERM not in os.read(wakeup[0], 512)
            _reap(children)
        if 0 in readable:
            chunk = os.read(0, 65536)
            running = running and bool(chunk)
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines if running else ():
                request = json.loads(line)
                pid = os.fork()
                if pid == 0:
                    _run_node(request, wakeup)
                children.add(pid)
                _report({"spawned": pid})
    for pid in children:
        os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + STOP_GRACE
    while children and time.monotonic() < deadline:
        if select.select([wakeup[0]], [], [], deadline - time.monotonic())[0]:
            os.read(wakeup[0], 512)
        _reap(children)
    for pid in children:
        os.kill(pid, signal.SIGKILL)
    _reap(children, 0)
