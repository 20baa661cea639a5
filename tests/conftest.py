"""Suite-wide guards.

The process SPMD backend forks real workers; a bug in its teardown would
leak children that outlive the test that spawned them (and, on CI, hang the
runner waiting on them).  The session fixture below asserts the suite ends
with no live multiprocessing children, after a short drain for workers
whose parent already initiated the join.
"""

import multiprocessing as mp
import threading
import time

import pytest


@pytest.fixture(autouse=True, scope="session")
def no_orphaned_workers():
    yield
    deadline = time.monotonic() + 5.0
    children = mp.active_children()  # also reaps finished processes
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = mp.active_children()
    assert not children, (
        f"test session leaked {len(children)} multiprocessing worker(s): "
        f"{[c.name for c in children]}"
    )


@pytest.fixture
def busy_readahead(monkeypatch):
    """Keep every shard read-ahead thread busy until its source is closed.

    The real thread exits as soon as it runs out of members to decode, so a
    source nobody closes usually leaves no trace.  Under this fixture a
    read-ahead thread stays alive until ``close()`` stops it, which makes
    "no live ``shard-readahead`` thread after the run" a real check that
    every source was closed.  Yields a function listing those threads;
    teardown releases any thread still held.
    """
    from repro.data.sources import ShardDirSource

    release = threading.Event()

    def hold(self, j, field, members):
        while not release.wait(0.001):
            with self._lock:
                if self._stopping:
                    return

    def live_threads() -> list:
        return [t for t in threading.enumerate()
                if t.name == "shard-readahead" and t.is_alive()]

    monkeypatch.setattr(ShardDirSource, "_decode_members", hold)
    yield live_threads
    release.set()


@pytest.fixture
def parser_options(monkeypatch):
    """A function returning every option string a CLI entry point's
    parser declares (the parser is stopped before it reads argv)."""
    import argparse

    def capture(parser, args=None, namespace=None):
        raise SystemExit(sorted(s for action in parser._actions
                                for s in action.option_strings))

    def options(main_fn) -> list[str]:
        with monkeypatch.context() as patch, pytest.raises(SystemExit) as exc:
            patch.setattr(argparse.ArgumentParser, "parse_args", capture)
            main_fn([])
        return exc.value.code

    return options
