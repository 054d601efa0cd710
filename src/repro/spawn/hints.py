"""The Task Spawn Unit's hint table.

PolyFlow "dedicates a special cache for storing the addresses of the
immediate postdominators of branches (much like a BTB stores branch
targets)", with "an eight byte entry per spawn point, which is used to
store register and memory dependence information for the task".

Following the paper, conflict and capacity misses are *not* modelled:
the hint table is a plain mapping from trigger PC to hint entry.
"""

from repro.isa.instructions import NUM_REGISTERS


class HintEntry:
    """Dependence/profitability information for one spawn point.

    Attributes:
        spawn_point: The static :class:`~repro.spawn.points.SpawnPoint`.
        write_set_mask: Bitmask of registers written between the trigger
            and the spawn target (the spawned-over region); consumers of
            these registers in the spawned task are diverted.
        mean_distance: Mean dynamic distance (instructions) between the
            trigger and the spawn target, from profiling.
        occurrence_count: Number of profiled dynamic occurrences.
    """

    __slots__ = ("spawn_point", "write_set_mask", "mean_distance", "occurrence_count")

    def __init__(self, spawn_point, write_set_mask=0, mean_distance=0.0, occurrence_count=0):
        self.spawn_point = spawn_point
        self.write_set_mask = write_set_mask
        self.mean_distance = mean_distance
        self.occurrence_count = occurrence_count

    def write_set(self):
        """The write set as a frozenset of register indices."""
        return frozenset(
            register
            for register in range(NUM_REGISTERS)
            if self.write_set_mask & (1 << register)
        )

    def protects_register(self, register):
        """Whether the entry marks ``register`` as written in the region."""
        return bool(self.write_set_mask & (1 << register))

    def __repr__(self):
        return "HintEntry({!r}, |writes|={}, distance={:.1f})".format(
            self.spawn_point, bin(self.write_set_mask).count("1"), self.mean_distance
        )


class HintTable:
    """Trigger-PC-indexed table of :class:`HintEntry`."""

    def __init__(self, entries=None):
        self._entries = dict(entries or {})

    def add(self, entry):
        """Insert an entry, keyed by its spawn point's trigger PC."""
        self._entries[entry.spawn_point.trigger_pc] = entry

    def lookup(self, pc):
        """The entry whose trigger is ``pc``, or None."""
        return self._entries.get(pc)

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def entries(self):
        """All entries, sorted by trigger PC."""
        return sorted(self._entries.values(), key=lambda e: e.spawn_point.trigger_pc)

    def __eq__(self, other):
        """Tables are equal when they drive identical spawns (see
        :meth:`key`); the experiment harness keys kernel runs by them."""
        return isinstance(other, HintTable) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """A hashable key equal for tables that drive identical spawns.

        Every entry field the simulator reads, sorted by trigger PC;
        the diagnostic ``procedure`` name is left out.
        """
        return tuple(
            (
                entry.spawn_point.trigger_pc,
                entry.spawn_point.spawn_pc,
                entry.spawn_point.category,
                entry.write_set_mask,
                entry.mean_distance,
                entry.occurrence_count,
            )
            for entry in self.entries()
        )
