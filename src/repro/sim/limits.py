"""ILP limit study in the style of Lam and Wilson (ISCA-19, 1992).

The paper's related work motivates control-equivalent spawning with Lam
and Wilson's limit study: "exploiting control independence to fetch and
execute along multiple flows of control can expose large amounts of
instruction level parallelism, which is not possible for a superscalar
processor limited by branch prediction accuracy."

This module computes three instruction-level-parallelism limits over a
committed trace, with unit latencies and unbounded resources:

* **dataflow** — only true register/memory dependences constrain issue
  (an oracle for both branch prediction and control flow);
* **single flow** — one fetch stream steered by a real gshare
  predictor: a mispredicted branch stalls *everything* younger until it
  resolves;
* **control independence** — the same predictor, but a mispredict only
  delays the instructions between the branch and the next dynamic
  instance of its immediate postdominator; control-independent
  instructions past the reconvergence point proceed.

The expected ordering, which the tests assert and Lam and Wilson
observed, is ``single flow <= control independence <= dataflow``.
"""

from repro.frontend.branch_predictor import GsharePredictor
from repro.sim.predecode import KIND_COND_BRANCH


class LimitStudyResult:
    """ILP under the three fetch models."""

    def __init__(self, instructions, dataflow, single_flow, control_independence):
        self.instructions = instructions
        self.dataflow = dataflow
        self.single_flow = single_flow
        self.control_independence = control_independence

    @property
    def control_independence_gain(self):
        """ILP multiplier of control independence over a single flow."""
        if self.single_flow == 0:
            return 0.0
        return self.control_independence / self.single_flow

    def __repr__(self):
        return (
            "LimitStudyResult(dataflow={:.1f}, single_flow={:.1f}, "
            "control_independence={:.1f})".format(
                self.dataflow, self.single_flow, self.control_independence
            )
        )


def _producers(trace):
    """Each trace index's producer edges: ``(dep0, dep1, mem_dep)``,
    ``-1`` marking no producer."""
    return zip(trace.dep0, trace.dep1, trace.mem_dep)


def _dependence_finish_times(trace):
    """Unit-latency dataflow finish time of every trace index."""
    finish = [0] * len(trace)
    for index, producers in enumerate(_producers(trace)):
        ready = 0
        for producer in producers:
            if producer >= 0 and finish[producer] > ready:
                ready = finish[producer]
        finish[index] = ready + 1
    return finish


def _mispredicted_branches(trace, predictor=None):
    """Set of trace indices whose conditional branch mispredicts."""
    if predictor is None:
        predictor = GsharePredictor()
    mispredicted = set()
    pcs = trace.pc
    takens = trace.taken
    for index, kind in enumerate(trace.kind):
        if kind == KIND_COND_BRANCH:
            taken = bool(takens[index])
            if predictor.predict_and_update(pcs[index], taken) != taken:
                mispredicted.add(index)
    return mispredicted


def _reconvergence_indices(trace, ipdom_pc_by_branch_pc):
    """For each trace index, the index where its branch reconverges.

    Resolved on the committed trace (next dynamic instance of the
    branch's immediate postdominator PC), like the spawn unit does.
    """
    pcs = trace.pc
    count = len(pcs)
    reconvergence = [count] * count
    last_seen = {}
    for index in range(count - 1, -1, -1):
        pc = pcs[index]
        ipdom_pc = ipdom_pc_by_branch_pc.get(pc)
        if ipdom_pc is not None:
            reconvergence[index] = last_seen.get(ipdom_pc, count)
        last_seen[pc] = index
    return reconvergence


def limit_study(trace, ipdom_pc_by_branch_pc=None, mispredict_penalty=8):
    """Compute the three ILP limits for a trace.

    Args:
        trace: A committed :class:`~repro.sim.trace.Trace`.
        ipdom_pc_by_branch_pc: Mapping branch PC -> ipdom PC (from
            :func:`repro.spawn.classify.classify_program` points).
            When None, the control-independence model degenerates to
            the single-flow model.
        mispredict_penalty: Fetch-stall cycles per mispredict.

    Returns:
        A :class:`LimitStudyResult`.
    """
    count = len(trace)
    if count == 0:
        return LimitStudyResult(0, 0.0, 0.0, 0.0)

    # Dataflow limit.
    dataflow_finish = _dependence_finish_times(trace)
    dataflow_ilp = count / max(dataflow_finish)

    mispredicted = _mispredicted_branches(trace)

    # Single flow: every instruction after a mispredicted branch is
    # fetched no earlier than the branch's resolution plus the penalty.
    finish = [0] * count
    fetch_floor = 0
    for index, producers in enumerate(_producers(trace)):
        ready = fetch_floor
        for producer in producers:
            if producer >= 0 and finish[producer] > ready:
                ready = finish[producer]
        finish[index] = ready + 1
        if index in mispredicted:
            stall = finish[index] + mispredict_penalty
            if stall > fetch_floor:
                fetch_floor = stall
    single_flow_ilp = count / max(finish)

    # Control independence: the mispredict floor applies only up to the
    # branch's reconvergence point.
    if ipdom_pc_by_branch_pc:
        reconvergence = _reconvergence_indices(trace, ipdom_pc_by_branch_pc)
        finish = [0] * count
        # Active floors: (expires_at_index, floor_value); kept tiny.
        floors = []
        for index, producers in enumerate(_producers(trace)):
            ready = 0
            for expires, floor in floors:
                if index < expires and floor > ready:
                    ready = floor
            for producer in producers:
                if producer >= 0 and finish[producer] > ready:
                    ready = finish[producer]
            finish[index] = ready + 1
            if index in mispredicted:
                floors.append(
                    (reconvergence[index], finish[index] + mispredict_penalty)
                )
                if len(floors) > 16:
                    floors = [
                        (expires, floor)
                        for expires, floor in floors
                        if expires > index
                    ][-16:]
        control_independence_ilp = count / max(finish)
    else:
        control_independence_ilp = single_flow_ilp

    return LimitStudyResult(
        count, dataflow_ilp, single_flow_ilp, control_independence_ilp
    )


def limit_study_for_workload(prepared, mispredict_penalty=8):
    """Run the limit study on a prepared workload, using its compiler
    ipdom information for the control-independence model."""
    ipdoms = {
        point.trigger_pc: point.spawn_pc
        for point in prepared.spawn_analysis.postdominator_points
    }
    return limit_study(prepared.trace, ipdoms, mispredict_penalty)
