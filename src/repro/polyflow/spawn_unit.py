"""The Task Spawn Unit.

Holds the hint table (trigger PC -> spawn point + dependence info),
resolves each dynamic trigger to the next dynamic instance of its spawn
target, and applies dynamic profitability feedback: spawn points whose
tasks keep suffering violation squashes are suppressed.

The trigger resolution mirrors the paper's methodology: "the Task Spawn
Unit uses a trace to ensure that tasks are not spawned too far into the
future".
"""

from bisect import bisect_right
from collections import defaultdict


class SpawnUnit:
    """Trace-resolved spawn decisions with profitability feedback."""

    def __init__(self, trace, hint_table, config):
        self.hint_table = hint_table
        self.config = config
        self.spawn_counts = defaultdict(int)
        self.squash_counts = defaultdict(int)
        self._suppressed = set()
        # ``_candidate_indices``: ascending trace indices with a resolved
        # spawn target; the block engine cuts its straight-line runs at
        # these so spawn decisions always take the per-instruction path.
        self._target_index, self._candidate_indices = self._resolve_targets(trace)

    def _resolve_targets(self, trace):
        """For each trace index, the index where its spawn would start.

        ``target_index[i] = j`` means the trigger at trace index ``i``
        spawns a task beginning at trace index ``j`` (the next dynamic
        instance of the spawn target within the distance window), or
        -1.  One pass over the trace's PC column collects the
        occurrences of the table's trigger and spawn PCs only; each
        trigger instance then finds its next spawn instance by
        bisection.  Returns ``(target_index, candidates)``,
        ``candidates`` being the ascending indices with a target.
        """
        count = len(trace)
        target_index = [-1] * count
        candidates = []
        if not len(self.hint_table):
            return target_index, candidates
        spawn_pc_of = {
            entry.spawn_point.trigger_pc: entry.spawn_point.spawn_pc
            for entry in self.hint_table
        }
        occurrences = {pc: [] for pc in spawn_pc_of.keys() | spawn_pc_of.values()}
        for index, pc in enumerate(trace.pc):
            slots = occurrences.get(pc)
            if slots is not None:
                slots.append(index)
        min_distance = self.config.min_spawn_distance
        max_distance = self.config.max_spawn_distance
        for trigger_pc, spawn_pc in spawn_pc_of.items():
            targets = occurrences[spawn_pc]
            if not targets:
                continue
            last = len(targets)
            for index in occurrences[trigger_pc]:
                position = bisect_right(targets, index)
                if position == last:
                    break
                target = targets[position]
                if min_distance <= target - index <= max_distance:
                    target_index[index] = target
                    candidates.append(index)
        candidates.sort()
        return target_index, candidates

    def spawn_target(self, trace_index, pc):
        """The start index for a spawn triggered at ``trace_index``.

        Returns -1 when there is nothing to spawn (no hint, target out
        of range, or the spawn point is suppressed by feedback).
        """
        target = self._target_index[trace_index]
        if target < 0:
            return -1
        if pc in self._suppressed:
            return -1
        return target

    def resolved_targets(self):
        """The live per-trace-index resolved-target list.

        ``resolved_targets()[i]`` is the start index a spawn triggered
        at trace index ``i`` would use, or -1; it is what
        :meth:`spawn_target` consults before the suppression filter.
        The event kernel's fetch loop indexes this directly (together
        with :meth:`suppressed_triggers_live`).
        """
        return self._target_index

    def spawn_candidate_indices(self):
        """Ascending trace indices whose resolved spawn target is live.

        The block engine consults this when compiling its run-length
        overlay (see :meth:`~repro.polyflow.core.PolyFlowCore._compile_blocks`):
        candidates bound every batched run, so sparse hint tables make
        the overlay a near-free copy of the shared block table.
        """
        return self._candidate_indices

    def suppressed_triggers_live(self):
        """The live suppression set (mutated by :meth:`record_squash`).

        Unlike :meth:`suppressed_triggers` this is not a snapshot: the
        returned set identity is stable for the unit's lifetime, so the
        fetch loop can hold it across :meth:`record_squash` calls.
        Callers must not mutate it.
        """
        return self._suppressed

    def hint_for(self, pc):
        """The hint entry of the trigger at ``pc``, or None."""
        return self.hint_table.lookup(pc)

    def record_spawn(self, trigger_pc):
        """Count a performed spawn for feedback purposes."""
        self.spawn_counts[trigger_pc] += 1

    def record_squash(self, trigger_pc):
        """Count a violation squash of a task spawned at ``trigger_pc``.

        Applies the profitability filter: a trigger whose tasks are
        squashed too often is suppressed for the rest of the run.
        """
        self.squash_counts[trigger_pc] += 1
        squashes = self.squash_counts[trigger_pc]
        spawns = max(self.spawn_counts[trigger_pc], 1)
        if (
            squashes >= self.config.spawn_feedback_threshold
            and squashes / spawns > self.config.spawn_feedback_ratio
        ):
            self._suppressed.add(trigger_pc)

    def suppressed_triggers(self):
        """Trigger PCs currently suppressed by feedback."""
        return frozenset(self._suppressed)

    def total_spawns(self):
        """Total spawns performed."""
        return sum(self.spawn_counts.values())
