"""Worker reconnect backoff: capped exponential, jittered, windowed.

:class:`TestBackoff` unit-tests :meth:`Worker._backoff_or_raise` with
patched clocks — no sockets.  :class:`TestLiveReconnect` drives a real
worker against a minimal coordinator that crashes and comes back on the
same port, and against an address nothing listens on.
:class:`TestClientDeadlines` points a client at peers that accept and then
never answer.  The full-service bounce test is
``tests/service/test_service.py::TestWorkerReconnect``.
"""

import pytest

from repro.dist.client import CoordinatorClient
from repro.dist.worker import Worker
from repro.errors import DistConnectionError, DistError


def _worker(**kwargs):
    kwargs.setdefault("reconnect_base", 0.5)
    kwargs.setdefault("reconnect_cap", 4.0)
    return Worker("127.0.0.1", 1, **kwargs)


@pytest.fixture
def no_jitter(monkeypatch):
    # delay *= 0.5 + random() -> exactly the nominal backoff step
    monkeypatch.setattr("repro.dist.worker.random.random", lambda: 0.5)


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("repro.dist.worker.time.sleep", recorded.append)
    return recorded


class TestBackoff:
    def test_disabled_by_default_reraises_immediately(self, sleeps):
        worker = _worker()  # reconnect_window defaults to 0
        exc = DistConnectionError("connection refused")
        with pytest.raises(DistConnectionError):
            worker._backoff_or_raise(exc, None, 0)
        assert sleeps == []

    def test_delays_double_up_to_the_cap(self, no_jitter, sleeps):
        worker = _worker(reconnect_window=3600.0)
        down, attempt = None, 0
        for _ in range(6):
            down, attempt = worker._backoff_or_raise(
                DistConnectionError("down"), down, attempt
            )
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]
        assert attempt == 6

    def test_jitter_stays_within_half_to_three_halves(
        self, sleeps, monkeypatch
    ):
        worker = _worker(reconnect_window=3600.0)
        down, attempt = None, 0
        for _ in range(40):
            down, attempt = worker._backoff_or_raise(
                DistConnectionError("down"), down, attempt
            )
        for delay, nominal in zip(
            sleeps, [0.5, 1.0, 2.0] + [4.0] * 37
        ):
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_window_measures_continuous_downtime(
        self, no_jitter, monkeypatch
    ):
        clock = [100.0]
        monkeypatch.setattr(
            "repro.dist.worker.time.monotonic", lambda: clock[0]
        )
        monkeypatch.setattr(
            "repro.dist.worker.time.sleep",
            lambda s: clock.__setitem__(0, clock[0] + s),
        )
        worker = _worker(reconnect_window=3.0)
        down, attempt = None, 0
        with pytest.raises(DistError, match="reconnect window"):
            while True:
                down, attempt = worker._backoff_or_raise(
                    DistConnectionError("down"), down, attempt
                )
        # Gave up within the window (never slept past the deadline).
        assert clock[0] - 100.0 <= 3.0

    def test_successful_reconnect_resets_the_window(
        self, no_jitter, monkeypatch
    ):
        """run() passes down_since=None after any successful connect; a
        fresh outage must then get the full window again."""
        clock = [0.0]
        monkeypatch.setattr(
            "repro.dist.worker.time.monotonic", lambda: clock[0]
        )
        monkeypatch.setattr(
            "repro.dist.worker.time.sleep",
            lambda s: clock.__setitem__(0, clock[0] + s),
        )
        worker = _worker(reconnect_window=3.0)
        down, attempt = worker._backoff_or_raise(
            DistConnectionError("down"), None, 0
        )
        assert down == 0.0
        clock[0] = 1000.0  # much later: outage over, new outage begins
        down, attempt = worker._backoff_or_raise(
            DistConnectionError("down again"), None, 0
        )
        assert down == 1000.0


class _BouncingCoordinator:
    """A minimal coordinator on a fixed port: it welcomes the worker,
    drops the connection and stops listening (a crash), then comes back on
    the same port and tells the reconnected worker the campaign is done."""

    def __init__(self, downtime: float = 0.5) -> None:
        import socket
        import threading

        self._downtime = downtime
        self.hellos = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._sock.listen()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _session(self, listener, final_reply) -> None:
        from repro.dist.protocol import recv_message, send_message

        conn, _ = listener.accept()
        with conn:
            assert recv_message(conn)["type"] == "hello"
            self.hellos += 1
            send_message(conn, {
                "type": "welcome", "version": 2, "worker": "w-bounce",
                "heartbeat_s": 1.0, "lease_timeout_s": 60.0,
            })
            assert recv_message(conn)["type"] == "request"
            if final_reply is not None:
                send_message(conn, final_reply)

    def _run(self) -> None:
        import socket
        import time

        self._session(self._sock, None)  # crash mid-conversation
        self._sock.close()
        time.sleep(self._downtime)
        again = socket.socket()
        again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        again.bind(("127.0.0.1", self.port))
        again.listen()
        with again:
            self._session(again, {"type": "done"})

    def join(self) -> None:
        self._thread.join(timeout=30.0)


class TestLiveReconnect:
    def test_connected_worker_rides_out_a_coordinator_bounce(self):
        coordinator = _BouncingCoordinator(downtime=0.5)
        worker = Worker(
            "127.0.0.1", coordinator.port, reconnect_window=30.0,
            reconnect_base=0.05, reconnect_cap=0.2,
        )
        stats = worker.run()  # returns once the restarted side says done
        coordinator.join()
        assert coordinator.hellos == 2
        assert stats.name == "w-bounce"

    def test_never_connected_worker_fails_fast(self):
        """The reconnect window only covers downtime after a successful
        handshake: a wrong address fails at once, window or not."""
        import socket
        import time

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        worker = Worker("127.0.0.1", port, reconnect_window=300.0)
        started = time.monotonic()
        with pytest.raises(DistConnectionError, match="cannot reach coordinator"):
            worker.run()
        assert time.monotonic() - started < 5.0


class TestClientDeadlines:
    """Every reply has a deadline, and a missed one is a connection loss
    (so the worker's reconnect window applies), not a hang."""

    def test_silent_listener_times_out_the_handshake(self):
        import socket
        import time

        # Listens (the kernel completes the TCP handshake) but never
        # accepts, reads or answers.
        with socket.create_server(("127.0.0.1", 0)) as silent:
            client = CoordinatorClient(
                *silent.getsockname()[:2], connect_timeout=0.3
            )
            started = time.monotonic()
            with pytest.raises(DistConnectionError):
                client.connect()
            assert time.monotonic() - started < 5.0
            client.close()

    def test_silence_after_welcome_times_out_the_reply(self):
        import socket
        import threading
        import time

        from repro.dist.protocol import recv_message, send_message

        requested, release = threading.Event(), threading.Event()

        def _welcome_then_hang(listener):
            conn, _ = listener.accept()
            with conn:
                recv_message(conn)
                send_message(conn, {
                    "type": "welcome", "version": 2, "worker": "w-silent",
                    "heartbeat_s": 0.1, "lease_timeout_s": 0.2,
                })
                recv_message(conn)  # the request, never answered
                requested.set()
                release.wait(5.0)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            peer = threading.Thread(
                target=_welcome_then_hang, args=(listener,), daemon=True
            )
            peer.start()
            client = CoordinatorClient(
                *listener.getsockname()[:2], connect_timeout=0.3
            )
            client.connect()
            started = time.monotonic()
            # max(connect_timeout, lease_timeout_s) = 0.3 s
            with pytest.raises(DistConnectionError):
                client.request_task()
            assert time.monotonic() - started < 2.0
            assert requested.is_set()
            client.close()
            release.set()
            peer.join(timeout=5.0)
