"""Shared-memory snapshot plane: segment lifecycle, seqlock integrity.

Covers the contracts the sharded serve plane leans on: epochs publish
atomically (a reader never observes a torn epoch, even under concurrent
republish), segments are unlinked on clean shutdown and reaped after the
grace period on relayout, readers survive writer relayouts by
re-attaching, and nothing trips the multiprocessing resource tracker.
"""

import glob
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.usage import UsageRecord
from repro.serve.shm import (ShmBackend, ShmSnapshotReader,
                             ShmSnapshotWriter, control_name)
from repro.serve.snapshot import snapshot_from_fcs


def _segments(token: str):
    return sorted(os.path.basename(p)
                  for p in glob.glob(f"/dev/shm/aqshm_{token}*"))


def _keys(n):
    return {f"u{i}": i for i in range(n)}


def _publish(writer, seq, n=8, value=1.0, keys=None):
    writer.publish_arrays(
        seq=seq, leaf_gen=1, computed_at=float(seq),
        unknown_user_value=0.5, resolution=9999,
        values=np.full(n, value, dtype=np.float64),
        keys=keys if keys is not None else _keys(n))


class TestSegmentLifecycle:
    def test_publish_attach_lookup_roundtrip(self):
        with ShmSnapshotWriter("t", token="lc1") as writer:
            _publish(writer, seq=1, n=4, value=0.25)
            reader = ShmSnapshotReader(writer.name)
            value, known, view = reader.lookup("u2")
            assert (value, known) == (0.25, True)
            assert view.seq == 1 and view.n_leaves == 4
            assert reader.lookup("nobody")[:2] == (0.5, False)
            reader.close()

    def test_republish_advances_epochs(self):
        with ShmSnapshotWriter("t", token="lc2") as writer:
            reader = ShmSnapshotReader(writer.name)
            for seq in range(1, 6):
                _publish(writer, seq=seq, value=float(seq))
                view = reader.view()
                assert view.seq == seq
                assert reader.lookup("u0")[0] == float(seq)
            reader.close()

    def test_clean_close_unlinks_every_segment(self):
        writer = ShmSnapshotWriter("t", token="lc3")
        _publish(writer, seq=1)
        assert _segments("lc3")  # ctl + double-buffered pair exist
        writer.close()
        assert _segments("lc3") == []

    def test_close_is_idempotent(self):
        writer = ShmSnapshotWriter("t", token="lc4")
        _publish(writer, seq=1)
        writer.close()
        writer.close()
        assert _segments("lc4") == []

    def test_relayout_retires_old_generation_after_grace(self):
        writer = ShmSnapshotWriter("t", token="lc5", grace=0.05)
        try:
            _publish(writer, seq=1, n=4)
            first_gen = set(_segments("lc5"))
            # growing the leaf table forces new, larger segments
            _publish(writer, seq=2, n=4096, keys=_keys(4096))
            assert set(_segments("lc5")) > first_gen  # both gens alive
            time.sleep(0.1)
            _publish(writer, seq=3, n=4096, keys=_keys(4096))
            remaining = _segments("lc5")
            # the gen-1 data pair is gone; ctl + gen-2 pair remain
            assert len(remaining) == 3
            assert control_name("lc5") in remaining
        finally:
            writer.close()
        assert _segments("lc5") == []

    def test_reader_follows_relayout(self):
        writer = ShmSnapshotWriter("t", token="lc6", grace=10.0)
        reader = ShmSnapshotReader(writer.name)
        try:
            _publish(writer, seq=1, n=4)
            assert reader.lookup("u3")[0] == 1.0
            _publish(writer, seq=2, n=512, value=2.0, keys=_keys(512))
            value, known, view = reader.lookup("u400")
            assert (value, known) == (2.0, True)
            assert view.seq == 2
            assert reader.reattaches >= 1
        finally:
            reader.close()
            writer.close()

    def test_reader_crash_leaks_nothing(self):
        """A SIGKILLed reader process must not leave segments behind
        (readers never own segments, and their tracker is never told
        about them)."""
        writer = ShmSnapshotWriter("t", token="lc7")
        try:
            _publish(writer, seq=1)
            child = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys, time\n"
                 "from repro.serve.shm import ShmSnapshotReader\n"
                 f"r = ShmSnapshotReader({writer.name!r})\n"
                 "assert r.lookup('u1')[1] is True\n"
                 "print('attached', flush=True)\n"
                 "time.sleep(30)\n"],
                stdout=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH="src"))
            assert child.stdout.readline().strip() == b"attached"
            os.kill(child.pid, signal.SIGKILL)
            child.wait(10)
            # the writer's segments are intact and still serve
            reader = ShmSnapshotReader(writer.name)
            assert reader.lookup("u1")[:2] == (1.0, True)
            reader.close()
        finally:
            writer.close()
        assert _segments("lc7") == []


class TestResourceTrackerHygiene:
    def test_full_cycle_emits_no_tracker_warnings(self):
        """Writer + same-process reader + forked reader must exit with a
        silent resource tracker (no 'leaked shared_memory' warnings, no
        KeyError tracebacks from double unregisters)."""
        script = (
            "import numpy as np, multiprocessing as mp\n"
            "from repro.serve.shm import ShmSnapshotReader, ShmSnapshotWriter\n"
            "w = ShmSnapshotWriter('t', token='rt1')\n"
            "w.publish_arrays(seq=1, leaf_gen=1, computed_at=0.0,\n"
            "                 unknown_user_value=0.5, resolution=9999,\n"
            "                 values=np.ones(8), \n"
            "                 keys={f'u{i}': i for i in range(8)})\n"
            "r = ShmSnapshotReader(w.name)\n"
            "assert r.lookup('u1')[:2] == (1.0, True)\n"
            "def child(name):\n"
            "    cr = ShmSnapshotReader(name)\n"
            "    assert cr.lookup('u2')[:2] == (1.0, True)\n"
            "    cr.close()\n"
            "p = mp.get_context('fork').Process(target=child, args=(w.name,))\n"
            "p.start(); p.join(10)\n"
            "assert p.exitcode == 0\n"
            "r.close(); w.close()\n"
            "print('done')\n")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=60,
                                env=dict(os.environ, PYTHONPATH="src"))
        assert result.returncode == 0, result.stderr
        assert "done" in result.stdout
        assert "resource_tracker" not in result.stderr
        assert "leaked" not in result.stderr
        assert _segments("rt1") == []


class TestTornReadImpossibility:
    def test_concurrent_republish_never_tears_an_epoch(self):
        """Every epoch is published with all values equal to its seq; a
        stamp-validated batch read that mixed two epochs would show two
        distinct values and fail."""
        n = 512
        stop = threading.Event()
        errors = []

        writer = ShmSnapshotWriter("t", token="tr1")
        _publish(writer, seq=1, n=n, value=1.0)

        def republish():
            seq = 2
            while not stop.is_set():
                _publish(writer, seq=seq, n=n, value=float(seq))
                seq += 1

        thread = threading.Thread(target=republish, daemon=True)
        thread.start()
        try:
            reader = ShmSnapshotReader(writer.name)
            ids = np.arange(n, dtype=np.int64)
            validated = 0
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline and not errors:
                view = reader.view()
                if view is None:
                    continue
                stamp = view.stamp()
                if stamp is None:
                    continue  # write in flight on this buffer
                values, known = view.values_for_ids(ids)
                distinct = set(np.unique(values))
                if not view.still(stamp):
                    continue  # raced a republish: read is void, retry
                validated += 1
                if len(distinct) != 1:
                    errors.append(sorted(distinct))
                elif distinct != {float(view.seq)}:
                    errors.append((distinct, view.seq))
            reader.close()
        finally:
            stop.set()
            thread.join(5.0)
            writer.close()
        assert not errors, f"torn epoch observed: {errors[0]}"
        assert validated > 100  # the validated-read loop actually ran

    def test_single_key_lookup_is_stamp_validated(self):
        n = 64
        stop = threading.Event()
        writer = ShmSnapshotWriter("t", token="tr2")
        _publish(writer, seq=1, n=n, value=1.0)

        def republish():
            seq = 2
            while not stop.is_set():
                _publish(writer, seq=seq, n=n, value=float(seq))
                seq += 1

        thread = threading.Thread(target=republish, daemon=True)
        thread.start()
        try:
            reader = ShmSnapshotReader(writer.name)
            deadline = time.monotonic() + 2.0
            reads = 0
            while time.monotonic() < deadline:
                value, known, view = reader.lookup("u13")
                assert known is True
                # reader.lookup only returns stamp-validated reads, so the
                # value must exactly match an epoch constant
                assert value == float(int(value))
                reads += 1
            assert reads > 100
            reader.close()
        finally:
            stop.set()
            thread.join(5.0)
            writer.close()


class TestShmBackend:
    def test_backend_info_and_identity(self, small_site):
        _, site = small_site
        writer = ShmSnapshotWriter(site.name, token="bk1")
        writer.attach_fcs(site.fcs, irs=site.irs)
        try:
            backend = ShmBackend.attach(writer.name, site=site.name)
            value, known, _ = backend.lookup_fairshare("alice")
            assert known is True
            direct = site.fcs.fairshare_value("alice")
            assert value == pytest.approx(direct)
            assert backend.resolve_identity("sys_alice") == "alice"
            assert backend.resolve_identity("sys_nobody") is None
            info = backend.info()
            assert info["snapshot"]["site"] == site.name
            assert info["staleness"] in ("fresh", "stale", "dead")
            backend.reader.close()
        finally:
            writer.close()


class TestKeyTableFollowsTheIdentityTable:
    def test_repointed_alias_is_not_served_from_its_old_target(
            self, small_site):
        """Re-pointing an alias leaves the map's size and (on a cached
        refresh) the values untouched; shm must still follow it."""
        _, site = small_site
        fcs = site.fcs
        dn = "/DC=org/CN=dn"
        writer = ShmSnapshotWriter(site.name, token="al1")
        reader = ShmSnapshotReader(writer.name)
        try:
            fcs.register_identity(dn, "alice")
            fcs.refresh()
            writer.publish(snapshot_from_fcs(fcs))
            assert reader.lookup(dn)[0] == fcs.fairshare_value("alice")
            fcs.refresh()  # a refresh nobody publishes
            fcs.register_identity(dn, "bob")
            fcs.refresh()
            assert fcs.last_refresh_hit
            snap = snapshot_from_fcs(fcs)
            writer.publish(snap)
            value, known, view = reader.lookup(dn)
            assert view.seq == snap.seq == fcs.publishes
            assert (value, known) == snap.lookup(dn) == fcs.lookup(dn)
            assert value == fcs.fairshare_value("bob") \
                != fcs.fairshare_value("alice")
        finally:
            reader.close()
            writer.close()

    def test_values_only_publishes_keep_the_key_table(self, small_site):
        """The key table is re-encoded only when the FCS replaced it: on a
        new alias or a structural edit, never because values moved."""
        engine, site = small_site
        fcs = site.fcs
        writer = ShmSnapshotWriter(site.name, token="ke1")
        reader = ShmSnapshotReader(writer.name)

        def miss_and_publish(user):
            site.uss.record_job(UsageRecord(user=user, site="a",
                                            start=engine.now,
                                            end=engine.now + 60.0))
            engine.run_until(engine.now + 5.0)  # UMS, then FCS refresh
            assert not fcs.last_refresh_hit
            writer.publish(snapshot_from_fcs(fcs))
            return reader.view()

        try:
            writer.publish(snapshot_from_fcs(fcs))
            first = reader.view()
            assert reader.lookup("alice")[1]
            for user in ("alice", "bob", "carol", "dave", "alice"):
                view = miss_and_publish(user)
                assert view.seq > first.seq
                assert view.key_epoch == first.key_epoch
                assert view.rows is first.rows  # the LRU stays warm
            assert "alice" in first.rows._cache
            fcs.register_identity("/DC=org/CN=carol", "carol")
            aliased = miss_and_publish("bob")
            assert aliased.key_epoch == first.key_epoch + 1
            assert reader.lookup("/DC=org/CN=carol")[1]
            site.pds.set_share("/hpc/erin", 1.0)
            edited = miss_and_publish("alice")
            assert edited.key_epoch == aliased.key_epoch + 1
            assert reader.lookup("/hpc/erin")[1]
            assert miss_and_publish("carol").key_epoch == edited.key_epoch
        finally:
            reader.close()
            writer.close()
