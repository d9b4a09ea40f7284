"""Shared-memory trace segments: lifecycle and integrity.

An attached trace must be bit-identical to the disk-cache load, a
corrupt or truncated segment must be refused (``ShmError``), and a
publisher's segments must go with it, not with a forked child that only
inherited its table.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.telemetry import MetricsRegistry
from repro.trace import PackedTrace
from repro.trace import shm
from repro.trace.cache import cached_trace, memo_clear
from repro.trace.workloads import get

pytestmark = pytest.mark.skipif(
    shm._shared_memory is None,
    reason="platform lacks multiprocessing.shared_memory")

BENCH = "twolf"
LENGTH = 800


@pytest.fixture(autouse=True)
def _clean_shm():
    """Every test starts and ends with no publications or attachments."""
    shm.unpublish_all()
    shm.detach_all()
    memo_clear()
    yield
    shm.unpublish_all()
    shm.detach_all()
    memo_clear()


def _packed(bench=BENCH, length=LENGTH):
    spec = get(bench)
    return cached_trace(bench, length), (bench, length, spec.seed, 1)


class TestPublishAttach:
    def test_attach_bit_identical(self):
        trace, key = _packed()
        reg = MetricsRegistry()
        handle = shm.publish(trace, key, metrics=reg)
        assert handle is not None
        attached = shm.attach(handle, metrics=reg)
        assert type(attached) is PackedTrace
        assert len(attached) == len(trace)
        for col, data in trace.columns().items():
            assert bytes(attached.columns()[col]) == bytes(data), col
        counters = reg.as_dict()["counters"]
        assert counters["shm.publish"] == 1
        assert counters["shm.attach"] == 1
        assert counters["shm.attach_bytes"] == handle.nbytes

    def test_attach_memoized_per_segment(self):
        trace, key = _packed()
        handle = shm.publish(trace, key)
        first = shm.attach(handle)
        second = shm.attach(handle)
        assert first is second

    def test_handle_is_picklable(self):
        trace, key = _packed()
        handle = shm.publish(trace, key)
        clone = pickle.loads(pickle.dumps(handle))
        assert clone.segment == handle.segment
        assert clone.layout == handle.layout
        assert shm.attach(clone).columns()["pcs"].tolist() == \
            trace.columns()["pcs"].tolist()

    def test_attached_trace_pickles_to_owning_copy(self):
        """A worker result embedding a shm-backed trace must ship a real
        copy, never a reference into another process's segment."""
        trace, key = _packed()
        handle = shm.publish(trace, key)
        attached = shm.attach(handle)
        clone = pickle.loads(pickle.dumps(attached))
        shm.detach_all()
        shm.unpublish_all()  # segment gone; the clone must still work
        assert clone.columns()["values"].tolist() == \
            trace.columns()["values"].tolist()


class TestLifecycle:
    def test_republish_returns_existing_handle(self):
        trace, key = _packed()
        handle = shm.publish(trace, key)
        again = shm.publish(trace, key)  # same key: no second segment
        assert again == handle
        assert shm.unpublish_all() == 1

    def test_unpublish_all_unlinks(self):
        trace, key = _packed()
        handle = shm.publish(trace, key)
        assert shm.unpublish_all() == 1
        with pytest.raises(shm.ShmError):
            shm.attach(handle)

    def test_attach_after_publisher_exit_falls_back(self, tmp_path):
        """A publisher that exits cleans its segments (atexit); a later
        attach finds no segment."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        script = (
            "import sys, json\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.trace import shm\n"
            "from repro.trace.cache import cached_trace\n"
            "from repro.trace.workloads import get\n"
            f"trace = cached_trace({BENCH!r}, {LENGTH!r})\n"
            f"key = ({BENCH!r}, {LENGTH!r}, get({BENCH!r}).seed, 1)\n"
            "handle = shm.publish(trace, key)\n"
            "print(json.dumps({'segment': handle.segment,\n"
            "                  'key': list(key)}))\n")
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        import json
        info = json.loads(out.stdout)
        # The child exited: its atexit hook unlinked the segment.
        with pytest.raises((shm.ShmError, OSError)):
            seg = shm._shared_memory.SharedMemory(name=info["segment"],
                                                  create=False)
            seg.close()

    def test_release_is_pid_guarded(self):
        """A forked child must not be able to destroy its parent's
        segments: ``unpublish_all`` in a non-owner process unlinks
        nothing."""
        trace, key = _packed()
        handle = shm.publish(trace, key)
        segment = shm._PUBLISHED[key][0]
        owner = shm._OWNER_PID
        try:
            shm._OWNER_PID = os.getpid() + 1  # simulate someone else's table
            assert shm.unpublish_all() == 0
        finally:
            shm._OWNER_PID = owner
        try:
            assert shm.attach(handle) is not None  # survived the child
        finally:
            shm.detach_all()
            shm._destroy(segment)  # the table forgot it: unlink by hand


class TestIntegrity:
    def test_corrupt_segment_refused(self):
        trace, key = _packed()
        reg = MetricsRegistry()
        handle = shm.publish(trace, key)
        # Scribble one byte of the first column through a side attachment.
        col, _tc, offset, nbytes = handle.layout[0]
        seg = shm._shared_memory.SharedMemory(name=handle.segment,
                                              create=False)
        seg.buf[offset] = seg.buf[offset] ^ 0xFF
        seg.close()
        with pytest.raises(shm.ShmError, match="checksum"):
            shm.attach(handle, metrics=reg)
        assert reg.as_dict()["counters"]["shm.checksum_refused"] == 1

    def test_truncated_segment_refused(self):
        trace, key = _packed()
        handle = shm.publish(trace, key)
        bad = shm.ShmTraceHandle(
            key=handle.key, segment=handle.segment,
            trace_name=handle.trace_name, count=handle.count,
            layout=handle.layout, checksums=handle.checksums,
            nbytes=handle.nbytes * 2)
        with pytest.raises(shm.ShmError, match="bytes"):
            shm.attach(bad)
