"""Set-associative cache model with LRU replacement.

Timing-only: the model tracks tags, not data (data comes from the
functional simulator).  Hit/miss results feed instruction latencies in
the cycle-level core.
"""

from repro.errors import ConfigurationError


def _is_power_of_two(value):
    return value > 0 and value & (value - 1) == 0


class Cache:
    """One level of a set-associative cache.

    Attributes:
        size: Capacity in bytes.
        associativity: Ways per set.
        line_size: Line size in bytes.
    """

    def __init__(self, size, associativity, line_size, name="cache"):
        if not (_is_power_of_two(size) and _is_power_of_two(line_size)):
            raise ConfigurationError("cache size and line size must be powers of two")
        if size % (associativity * line_size) != 0:
            raise ConfigurationError(
                "cache size must be divisible by associativity * line size"
            )
        self.size = size
        self.associativity = associativity
        self.line_size = line_size
        self.name = name
        self.set_count = size // (associativity * line_size)
        self._offset_bits = line_size.bit_length() - 1
        self._set_mask = self.set_count - 1
        self._tag_shift = self.set_count.bit_length() - 1
        # Each set is an LRU-ordered list of tags (most recent last).
        self._sets = [[] for _ in range(self.set_count)]
        self.hits = 0
        self.misses = 0

    @property
    def offset_bits(self):
        """Bits of within-line offset (``line_address`` is ``>> this``)."""
        return self._offset_bits

    def line_address(self, address):
        """The line-aligned address containing ``address``."""
        return address >> self._offset_bits

    def snapshot_sets(self):
        """A deep copy of the LRU state (tags per set, recency order)."""
        return [list(tags) for tags in self._sets]

    def restore_sets(self, snapshot):
        """Install LRU state captured by :meth:`snapshot_sets`.

        The grid-batch runner warms one hierarchy per trace and clones
        the resulting state into sibling cells; restoring a snapshot is
        observably identical to replaying the accesses that produced it.
        """
        if len(snapshot) != self.set_count:
            raise ConfigurationError(
                "snapshot has {} sets, cache has {}".format(
                    len(snapshot), self.set_count
                )
            )
        self._sets = [list(tags) for tags in snapshot]

    def access(self, address):
        """Access ``address``; returns True on hit.  Fills on miss."""
        line = address >> self._offset_bits
        cache_set = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        if tag in cache_set:
            cache_set.remove(tag)
            cache_set.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.associativity:
            del cache_set[0]
        cache_set.append(tag)
        return False

    def probe(self, address):
        """Check residency without updating LRU or filling."""
        line = address >> self._offset_bits
        cache_set = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        return tag in cache_set

    def reset_statistics(self):
        """Zero the hit/miss counters (contents are kept)."""
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self):
        """Total number of accesses."""
        return self.hits + self.misses

    @property
    def miss_rate(self):
        """Fraction of accesses that missed."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def __repr__(self):
        return "Cache(name={!r}, {}B/{}-way/{}B lines)".format(
            self.name, self.size, self.associativity, self.line_size
        )
