"""The Figure 8 cache hierarchy: split L1s over a unified L2.

Latencies follow the paper's parameters:

* L1 I-cache: 8KB, 2-way, 128-byte lines, 10-cycle miss;
* L1 D-cache: 16KB, 4-way, 64-byte lines, 10-cycle miss;
* L2: 512KB, 8-way, 128-byte lines, 100-cycle miss.

An L1 miss that hits in L2 costs the L1 miss penalty; an access that
also misses in L2 additionally pays the L2 miss penalty.
"""

from repro.memory.cache import Cache


class CacheHierarchy:
    """Shared two-level cache hierarchy with access latencies."""

    def __init__(
        self,
        l1i_size=8 * 1024,
        l1i_assoc=2,
        l1i_line=128,
        l1d_size=16 * 1024,
        l1d_assoc=4,
        l1d_line=64,
        l2_size=512 * 1024,
        l2_assoc=8,
        l2_line=128,
        l1_hit_latency=1,
        l1_miss_penalty=10,
        l2_miss_penalty=100,
    ):
        self.l1i = Cache(l1i_size, l1i_assoc, l1i_line, name="L1I")
        self.l1d = Cache(l1d_size, l1d_assoc, l1d_line, name="L1D")
        self.l2 = Cache(l2_size, l2_assoc, l2_line, name="L2")
        self.l1_hit_latency = l1_hit_latency
        self.l1_miss_penalty = l1_miss_penalty
        self.l2_miss_penalty = l2_miss_penalty

    # fetch_latency and data_latency share one body, written out twice
    # to save a call on every access the timing kernel makes.

    def fetch_latency(self, pc):
        """Latency of an instruction fetch at ``pc``."""
        if self.l1i.access(pc):
            return self.l1_hit_latency
        if self.l2.access(pc):
            return self.l1_hit_latency + self.l1_miss_penalty
        return self.l1_hit_latency + self.l1_miss_penalty + self.l2_miss_penalty

    def data_latency(self, address):
        """Latency of a data access at ``address``."""
        if self.l1d.access(address):
            return self.l1_hit_latency
        if self.l2.access(address):
            return self.l1_hit_latency + self.l1_miss_penalty
        return self.l1_hit_latency + self.l1_miss_penalty + self.l2_miss_penalty

    def snapshot_sets(self):
        """Per-level LRU state (see :meth:`Cache.snapshot_sets`)."""
        return (
            self.l1i.snapshot_sets(),
            self.l1d.snapshot_sets(),
            self.l2.snapshot_sets(),
        )

    def restore_sets(self, snapshot):
        """Install per-level LRU state captured by :meth:`snapshot_sets`."""
        l1i, l1d, l2 = snapshot
        self.l1i.restore_sets(l1i)
        self.l1d.restore_sets(l1d)
        self.l2.restore_sets(l2)

    def reset_statistics(self):
        """Zero all hit/miss counters."""
        self.l1i.reset_statistics()
        self.l1d.reset_statistics()
        self.l2.reset_statistics()

    def statistics(self):
        """Per-level (hits, misses) tuples."""
        return {
            "L1I": (self.l1i.hits, self.l1i.misses),
            "L1D": (self.l1d.hits, self.l1d.misses),
            "L2": (self.l2.hits, self.l2.misses),
        }
