"""Concurrency and process-lifecycle tests for the artifact store.

The store's claims are cross-process claims: shard directories survive
concurrent writers from several processes, and processes that build the
same interned tables side by side exit without teardown noise.  These
tests spawn real processes to check each one.
"""

import multiprocessing as mp
import os
import subprocess
import sys

import pytest

from repro.store import ShardedDiskTier, shard_for


def _disk_worker(directory, worker_id, keys, out_queue):
    tier = ShardedDiskTier(directory)
    results = {}
    for key in keys:
        tier.put(key, {"worker": worker_id, "key": key})
        lookup = tier.get(key)
        results[key] = lookup.hit and isinstance(lookup.payload, dict)
    out_queue.put((worker_id, results))


class TestMultiProcessDisk:
    def test_concurrent_put_get_same_shard(self, tmp_path):
        """Several processes hammering keys that share shard dirs never
        corrupt an entry or drop a write (atomic tmp + os.replace)."""
        keys = [f"key-{i}" for i in range(16)]
        queue = mp.Queue()
        workers = [
            mp.Process(
                target=_disk_worker, args=(str(tmp_path), w, keys, queue)
            )
            for w in range(4)
        ]
        for p in workers:
            p.start()
        outcomes = [queue.get(timeout=60) for _ in workers]
        for p in workers:
            p.join(timeout=60)
            assert p.exitcode == 0
        for _worker_id, results in outcomes:
            assert all(results.values())

        tier = ShardedDiskTier(tmp_path)
        assert tier.entries() == len(keys)
        for key in keys:
            lookup = tier.get(key)
            assert lookup.hit
            assert lookup.payload["key"] == key
        # No writer debris left behind.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_entries_land_in_expected_shards(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        for i in range(8):
            tier.put(f"k{i}", {"i": i})
        for i in range(8):
            assert (tmp_path / shard_for(f"k{i}") / f"k{i}.json").exists()


#: Builds one fixed n=12 cost diagonal; with ``hold`` it then reports
#: ready and stays alive until its stdin closes.
_DIAGONAL_SCRIPT = """
import sys
from repro.qaoa.problems import MaxCutProblem
from repro.sim.fastpath import cost_diagonal
edges = [(i, (i + 1) % 12) for i in range(12)] + [(i, i + 6) for i in range(6)]
diagonal = cost_diagonal(MaxCutProblem(12, edges))
print(float(diagonal.cut.sum()), flush=True)
if sys.argv[1:] == ["hold"]:
    sys.stdin.read()
"""


class TestCleanExit:
    def test_two_processes_same_diagonal_exit_clean(self, tmp_path):
        """A process builds a cost diagonal and stays alive while a second
        builds the same one: both agree, exit 0 and print nothing at
        interpreter teardown."""
        script = tmp_path / "diagonal.py"
        script.write_text(_DIAGONAL_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        first = subprocess.Popen(
            [sys.executable, str(script), "hold"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            first_total = first.stdout.readline().strip()
            second = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            _, first_err = first.communicate(input="", timeout=120)
        finally:
            if first.poll() is None:
                first.kill()
                first.communicate()
        assert first.returncode == 0, first_err
        assert second.returncode == 0, second.stderr
        assert second.stdout.strip() == first_total != ""
        for stderr in (first_err, second.stderr):
            assert "Exception ignored" not in stderr, stderr
            assert "BufferError" not in stderr, stderr


class TestCorruptShardQuarantineAcrossProcesses:
    def test_quarantine_counted_once_per_corrupt_entry(self, tmp_path):
        """Two tier instances (stand-ins for two processes) racing into a
        corrupt entry: the file is quarantined exactly once, both report
        a miss, and quarantine counters reflect what each one saw."""
        writer = ShardedDiskTier(tmp_path)
        writer.put("poisoned", {"v": 1})
        writer.entry_path("poisoned").write_text("{torn mid-write")

        first = ShardedDiskTier(tmp_path)
        second = ShardedDiskTier(tmp_path)
        lookup_a = first.get("poisoned")
        lookup_b = second.get("poisoned")
        assert lookup_a.quarantined and not lookup_a.hit
        # Second reader finds the entry already moved aside: plain miss.
        assert not lookup_b.hit and not lookup_b.quarantined
        shard = shard_for("poisoned")
        assert first.shard_stats()[shard].quarantines == 1
        assert second.shard_stats()[shard].misses == 1
        corrupt = list((tmp_path / shard).glob("*.corrupt"))
        assert len(corrupt) == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
