"""The Task Spawn Unit.

Holds the hint table (trigger PC -> spawn point + dependence info),
resolves each dynamic trigger to the next dynamic instance of its spawn
target, and applies dynamic profitability feedback: spawn points whose
tasks keep suffering violation squashes are suppressed.

The trigger resolution mirrors the paper's methodology: "the Task Spawn
Unit uses a trace to ensure that tasks are not spawned too far into the
future".
"""

from collections import defaultdict


class SpawnUnit:
    """Trace-resolved spawn decisions with profitability feedback."""

    def __init__(self, trace, hint_table, config):
        self.hint_table = hint_table
        self.config = config
        self.spawn_counts = defaultdict(int)
        self.squash_counts = defaultdict(int)
        self._task_instructions = defaultdict(int)
        self._task_diverts = defaultdict(int)
        self._suppressed = set()
        # ``_candidate_indices``: ascending trace indices with a resolved
        # spawn target; the block engine cuts its straight-line runs at
        # these so spawn decisions always take the per-instruction path.
        self._target_index, self._candidate_indices = self._resolve_targets(trace)

    def _resolve_targets(self, trace):
        """For each trace index, the index where its spawn would start.

        Computed in one backward pass over the trace's PC column:
        ``target_index[i] = j`` means the trigger at trace index ``i``
        spawns a task beginning at trace index ``j`` (the next dynamic
        instance of the spawn target within the distance window), or
        -1.  Returns ``(target_index, candidates)``, ``candidates``
        being the ascending indices with a target.
        """
        count = len(trace)
        target_index = [-1] * count
        candidates = []
        if not len(self.hint_table):
            return target_index, candidates
        pcs = trace.pc
        lookup = self.hint_table.lookup
        min_distance = self.config.min_spawn_distance
        max_distance = self.config.max_spawn_distance
        last_seen = {}
        for index in range(count - 1, -1, -1):
            pc = pcs[index]
            entry = lookup(pc)
            if entry is not None:
                target = last_seen.get(entry.spawn_point.spawn_pc, -1)
                if target >= 0:
                    distance = target - index
                    if min_distance <= distance <= max_distance:
                        target_index[index] = target
                        candidates.append(index)
            last_seen[pc] = index
        candidates.reverse()
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
        The core's fetch loop indexes this directly (together with
        :meth:`suppressed_triggers_live`) on its non-verbose fast path.
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

    def record_task_instruction(self, trigger_pc, diverted):
        """Bookkeeping: how data-dependent a trigger's tasks are.

        Purely observational (reported via :meth:`divert_fraction`);
        suppression is driven by violation squashes, the signal the
        paper's Synchronizing Store Sets mechanism acts on.
        """
        self._task_instructions[trigger_pc] += 1
        if diverted:
            self._task_diverts[trigger_pc] += 1

    def record_task_instructions(self, trigger_pc, count, diverted):
        """Batched :meth:`record_task_instruction`.

        Counts ``count`` task instructions of which ``diverted`` went
        through the divert queue — the event kernel's fetch loop
        accumulates one burst's worth and flushes it in a single call.
        """
        self._task_instructions[trigger_pc] += count
        self._task_diverts[trigger_pc] += diverted

    def divert_fraction(self, trigger_pc):
        """Fraction of a trigger's task instructions that diverted."""
        total = self._task_instructions[trigger_pc]
        if not total:
            return 0.0
        return self._task_diverts[trigger_pc] / total

    def suppressed_triggers(self):
        """Trigger PCs currently suppressed by feedback."""
        return frozenset(self._suppressed)

    def total_spawns(self):
        """Total spawns performed."""
        return sum(self.spawn_counts.values())
