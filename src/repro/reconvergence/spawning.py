"""Spawning from dynamically predicted reconvergence points (Figure 12).

"Upon reaching any branch, the system identifies the reconvergence
point of that branch as a possible spawn point. ... In addition, the
system also spawns procedure fall-throughs at call instructions."

The spawn unit built here resolves each dynamic trigger with the
predictor state *as of that point in the stream*, so warm-up effects
are modelled: a branch spawns nothing until its reconvergence has been
learned from earlier committed instances.
"""

from bisect import bisect_right
from collections import defaultdict

from repro.isa.instructions import REGISTER_ALIASES
from repro.polyflow.spawn_unit import SpawnUnit
from repro.reconvergence.predictor import ReconvergencePredictor
from repro.spawn.hints import HintEntry, HintTable
from repro.spawn.points import SpawnCategory, SpawnPoint

_RA = REGISTER_ALIASES["ra"]


class ReconvergenceSpawnUnit(SpawnUnit):
    """A Task Spawn Unit driven by per-instance resolved targets."""

    def __init__(self, trace, hint_table, config, target_index):
        self._precomputed_targets = target_index
        super().__init__(trace, hint_table, config)

    def _resolve_targets(self, trace):
        targets = self._precomputed_targets
        return targets, [index for index, target in enumerate(targets) if target >= 0]


def _is_switch(inst):
    return inst.is_return_like and inst.rs != _RA


def resolve_reconvergence_targets(trace, config, predictor=None):
    """Stream the trace through the predictor and resolve spawns.

    Returns:
        ``(target_index, spawn_pc_by_trigger, predictor)`` where
        ``target_index[i]`` is the trace index a spawn triggered at
        record ``i`` would start at (or -1), and ``spawn_pc_by_trigger``
        maps each trigger PC to the spawn PC it most recently used.
    """
    if predictor is None:
        predictor = ReconvergencePredictor()
    count = len(trace)
    target_index = [-1] * count
    spawn_pc_by_trigger = {}

    positions = defaultdict(list)
    for index, pc in enumerate(trace.pc):
        positions[pc].append(index)

    def next_instance(pc, after):
        slots = positions.get(pc)
        if not slots:
            return -1
        position = bisect_right(slots, after)
        if position >= len(slots):
            return -1
        return slots[position]

    min_distance = config.min_spawn_distance
    max_distance = config.max_spawn_distance

    takens = trace.taken
    for index, inst in enumerate(trace.inst):
        spawn_pc = None
        if inst.is_conditional_branch or _is_switch(inst):
            # Prediction uses only state learned from older instances.
            spawn_pc = predictor.predict(inst.pc)
        elif inst.is_call:
            spawn_pc = inst.fall_through_pc()
        if spawn_pc is not None:
            target = next_instance(spawn_pc, index)
            if target >= 0:
                distance = target - index
                if min_distance <= distance <= max_distance:
                    target_index[index] = target
                    spawn_pc_by_trigger[inst.pc] = spawn_pc
        # Train after predicting: the retirement stream reaches the
        # predictor after the fetch-time spawn decision.
        if inst.is_conditional_branch:
            predictor.observe(inst.pc, bool(takens[index]), inst.target)
        elif _is_switch(inst):
            predictor.observe(inst.pc, "indirect")
        else:
            predictor.observe(inst.pc)

    return target_index, spawn_pc_by_trigger, predictor


def build_reconvergence_spawner(prepared, config, predictor=None):
    """Build the Figure 12 spawn unit for a prepared workload.

    Args:
        prepared: A :class:`~repro.workloads.suite.PreparedWorkload`.
        config: The machine configuration.
        predictor: Optional pre-built predictor (default: fresh, so
            warm-up effects are modelled).

    Returns:
        A :class:`ReconvergenceSpawnUnit` ready to drop into a
        :class:`~repro.polyflow.core.PolyFlowCore`.
    """
    trace = prepared.trace
    target_index, spawn_pc_by_trigger, predictor = resolve_reconvergence_targets(
        trace, config, predictor
    )

    # Categorize triggers via the static analysis where possible, so
    # statistics remain comparable with the compiler-driven policies.
    static_by_trigger = {
        point.trigger_pc: point
        for point in prepared.spawn_analysis.postdominator_points
    }
    table = HintTable()
    for trigger_pc, spawn_pc in spawn_pc_by_trigger.items():
        static_point = static_by_trigger.get(trigger_pc)
        if static_point is not None:
            category = static_point.category
        else:
            category = SpawnCategory.OTHER
        point = SpawnPoint(trigger_pc, spawn_pc, category)
        table.add(HintEntry(point))
    return ReconvergenceSpawnUnit(trace, table, config, target_index)
