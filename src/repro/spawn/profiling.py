"""Profile-driven spawn-point characterization.

The paper's simulator "obtains its spawn points from a profile-driven
immediate postdominator analysis".  This module replays a committed
trace and measures, for every static spawn point:

* how often its trigger is reached dynamically,
* the dynamic distance (in instructions) from trigger to spawn target,
* the registers written in the spawned-over region (the contents of the
  hint cache's 8-byte dependence entry).

A single profiling pass covers any number of spawn points, so all
policies of one workload share one pass.
"""

from collections import defaultdict

from repro.spawn.hints import HintEntry, HintTable

#: Spawn targets further than this many instructions ahead are treated
#: as unreachable ("tasks are not spawned too far into the future").
DEFAULT_MAX_SPAWN_DISTANCE = 512

#: Number of occurrences whose register write sets are accumulated into
#: the hint mask (write sets converge after a few iterations).
_WRITE_SET_SAMPLES = 16


class PointProfile:
    """Dynamic statistics of one static spawn point."""

    __slots__ = (
        "spawn_point",
        "occurrences",
        "reachable_occurrences",
        "total_distance",
        "max_distance",
        "write_set_mask",
        "_write_samples",
    )

    def __init__(self, spawn_point):
        self.spawn_point = spawn_point
        #: Times the trigger PC was committed.
        self.occurrences = 0
        #: Times the spawn target appeared within the distance cap.
        self.reachable_occurrences = 0
        self.total_distance = 0
        #: Largest observed trigger-to-target distance: an upper bound
        #: on the size of the task this spawn point creates.
        self.max_distance = 0
        self.write_set_mask = 0
        self._write_samples = 0

    @property
    def mean_distance(self):
        """Mean trigger-to-target distance over reachable occurrences."""
        if not self.reachable_occurrences:
            return 0.0
        return self.total_distance / self.reachable_occurrences

    @property
    def reachability(self):
        """Fraction of occurrences whose target was within the cap."""
        if not self.occurrences:
            return 0.0
        return self.reachable_occurrences / self.occurrences

    def to_hint_entry(self):
        """Convert to a :class:`~repro.spawn.hints.HintEntry`."""
        return HintEntry(
            self.spawn_point,
            write_set_mask=self.write_set_mask,
            mean_distance=self.mean_distance,
            occurrence_count=self.reachable_occurrences,
        )


class SpawnProfile:
    """Profiles for a set of spawn points over one trace."""

    def __init__(self, profiles):
        self._profiles = profiles

    def of_point(self, spawn_point):
        """The :class:`PointProfile` of ``spawn_point`` (or None)."""
        return self._profiles.get(spawn_point.key())

    def hint_table(self, policy, min_occurrences=1, min_loop_task_size=32):
        """Build the hint table for ``policy`` from this profile.

        Spawn points never observed dynamically (or observed fewer than
        ``min_occurrences`` times) get no hint entry, so the Task Spawn
        Unit will not spawn them.

        Loop-derived spawns (loop iterations and loop fall-throughs)
        additionally require a maximum spawned-over distance of at least
        ``min_loop_task_size`` instructions: TLS compilers size loop
        tasks (Multiscalar, POSH apply unrolling/selection to make
        "tasks of suitable sizes"), because tiny iteration tasks cost
        more in task overhead and inter-task dependences than they
        expose in parallelism.  The maximum is used because loop-exit
        triggers fire on every iteration while only the earliest
        instance actually delimits the task.
        """
        from repro.spawn.points import SpawnCategory

        sized_categories = (SpawnCategory.LOOP, SpawnCategory.LOOP_FALL_THROUGH)
        table = HintTable()
        for point in policy:
            profile = self._profiles.get(point.key())
            if profile is None or profile.reachable_occurrences < min_occurrences:
                continue
            if (
                point.category in sized_categories
                and profile.max_distance < min_loop_task_size
            ):
                continue
            table.add(profile.to_hint_entry())
        return table

    def __len__(self):
        return len(self._profiles)

    def __iter__(self):
        return iter(self._profiles.values())


def profile_spawn_points(trace, points, max_distance=DEFAULT_MAX_SPAWN_DISTANCE):
    """Profile ``points`` over ``trace`` in one backward pass.

    Args:
        trace: A committed :class:`~repro.sim.trace.Trace`.
        points: Iterable of :class:`~repro.spawn.points.SpawnPoint`
            (typically the union of all policies' points).
        max_distance: Distance cap in dynamic instructions.

    Returns:
        A :class:`SpawnProfile`.
    """
    points_by_trigger = defaultdict(list)
    profiles = {}
    for point in points:
        key = point.key()
        if key in profiles:
            continue
        profiles[key] = PointProfile(point)
        points_by_trigger[point.trigger_pc].append(point)

    pcs = trace.pc
    count = len(pcs)

    # Backward pass: next_occurrence[idx] resolves, for every trigger
    # occurrence, the index of the next dynamic instance of its target.
    pending = []  # (trigger_index, point_key, target_pc) awaiting masks
    last_seen = {}
    for index in range(count - 1, -1, -1):
        pc = pcs[index]
        triggered = points_by_trigger.get(pc)
        if triggered is not None:
            for point in triggered:
                profile = profiles[point.key()]
                profile.occurrences += 1
                target_index = last_seen.get(point.spawn_pc, -1)
                if target_index < 0:
                    continue
                distance = target_index - index
                if distance <= 0 or distance > max_distance:
                    continue
                profile.reachable_occurrences += 1
                profile.total_distance += distance
                if distance > profile.max_distance:
                    profile.max_distance = distance
                if profile._write_samples < _WRITE_SET_SAMPLES:
                    profile._write_samples += 1
                    pending.append((index, point.key(), target_index))
        last_seen[pc] = index

    # Forward pass: accumulate write-set masks for the sampled windows.
    if pending:
        pending.sort()
        window_starts = defaultdict(list)
        for start, key, stop in pending:
            window_starts[start].append((key, stop))
        active = []  # (stop_index, profile)
        insts = trace.inst
        for index in range(count):
            if index in window_starts:
                for key, stop in window_starts[index]:
                    active.append((stop, profiles[key]))
            if active:
                destination = insts[index].rd
                if destination:
                    bit = 1 << destination
                    for stop, profile in active:
                        if index < stop:
                            profile.write_set_mask |= bit
                active = [(stop, profile) for stop, profile in active if stop > index + 1]

    return SpawnProfile(profiles)
