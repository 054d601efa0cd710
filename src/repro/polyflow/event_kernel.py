"""The event-calendar timing kernel: PolyFlow without the cycle grind.

The staged reference engine,
:meth:`~repro.polyflow.core.PolyFlowCore._run_staged`, visits every
cycle and calls one method per pipeline stage, even when all in-flight
tasks are stalled on cache fills or fetch bubbles and the cycle is a
provable no-op.  This module is the fast transcription of that loop:
every stage is inlined over the flat trace columns and the compiled
block tables, and the machine's future is kept in two
calendars — one for functional-unit/cache-fill completions, one for
scheduler wake-ups — and, together with the per-task fetch-stall timers,
their minimum bounds the next cycle in which anything can change.  When
a cycle ends provably frozen the clock jumps straight to that bound,
burning down multi-cycle stalls (cache misses, mispredict penalties,
divert-queue freezes) in one step.  The per-cycle occupancy statistic is
the only thing that accrues across a jump, and it is added in closed
form, so statistics and event streams are *exact* — the differential and
golden-trace suites compare this kernel against the staged engine byte
for byte.  This is the discrete-event formulation of an ILP core.

What makes the calendar leaner than the staged engine's event dict:

* **No generation counters.**  The reference engines tag every queue
  entry with a per-index generation and lazily skip stale entries after
  a squash.  Squashes always remove a *suffix* of the task list, and
  task segments partition the trace in order, so every squashed trace
  index is ``>= cutoff`` (the first squashed task's start).  The kernel
  therefore scrubs its calendars, ready heap and waiter maps eagerly at
  squash time with one range predicate, and every surviving entry is
  known live — no per-event generation checks on the hot path.  (The
  divert FIFO keeps the reference engine's *lazy* deletion, tagged with
  a small per-index epoch, because its bounded scan counts lazily
  deleted entries against the scan budget; scrubbing it would let the
  scan reach deeper than the staged engine in the cycle after a
  squash.)
* **Typed calendars.**  Completion buckets are plain trace-index lists
  and wake-up buckets hold indices or ``(start, end)`` fetch runs, so
  processing a bucket does no kind dispatch or tuple unpacking.
* **Plain-run issue.**  When a fired wake-up run is the only ready work
  and contains no loads, stores or multiplies (``plain_end`` from the
  :class:`~repro.sim.blocks.BlockTable`), the whole run issues as one
  batch with a single range completion on the calendar — no per-index
  heap traffic.  Runs with memory operations take the reference path so
  the cache-access order (and therefore LRU state and hit counters)
  stays identical.

:meth:`PolyFlowCore.run` selects the kernel whenever it is exact:
``nested_spawns`` off, no stage-hook or spawn-target override, and no
verbose sink attached (verbose runs emit per-instruction events
*during* skipped-over cycles).  Everything else runs on the staged
engine; there is no switch, so the one fast engine is the one every
benchmark and figure measures.
"""

import heapq

from repro.errors import SimulationError
from repro.frontend.icount import select_fetch_tasks
from repro.obs.events import DependenceViolation, TaskSquashed
from repro.sim.predecode import (
    KIND_CALL_DIRECT,
    KIND_CALL_INDIRECT,
    KIND_COND_BRANCH,
    KIND_RETURN,
    KIND_SWITCH,
    LAT_LOAD,
    LAT_MUL,
    LAT_STORE,
)

def run_event_kernel(core):
    """Drive ``core`` to completion on the event-calendar kernel.

    ``core`` is a :class:`~repro.polyflow.core.PolyFlowCore` whose block
    tables are compiled and whose bus carries no verbose sink; observable
    behaviour (statistics, lifecycle event stream, cache state) is
    identical to :meth:`~repro.polyflow.core.PolyFlowCore._run_staged`.
    The kernel keeps the machine's counters in locals; its ``finally``
    writes them back to ``core`` and ``core.stats``, so a run that
    raises (the no-progress guard) leaves the core as coherent as the
    staged engine leaves it.
    """
    # Imported here: core imports this module lazily, so a top-level
    # import back into core would execute during core's own import.
    from repro.polyflow.core import (
        _DIVERT,
        _DONE,
        _EXEC,
        _FREE,
        _HEAD_ROB_RESERVE,
        _HEAD_SCHED_RESERVE,
        _READY,
        _RETIRED,
        _WAIT,
    )

    config = core.config
    bus = core.bus
    stats = core.stats
    state = core._state
    wait_count = core._wait_count
    earliest = core._earliest
    fetch_cycle = core._fetch_cycle
    owner = core._owner
    sched_used = core._sched_used
    dependents = core._dependents
    divert_producer_map = core._divert_producers
    unsafe_mem = core._unsafe_mem
    tasks = core._tasks
    heap = core._ready_heap
    fifo = core._divert_fifo
    pcs = core._pcs
    kinds = core._kinds
    lats = core._lats
    takens = core._takens
    next_pcs = core._next_pcs
    fall_throughs = core._fall_throughs
    lines = core._lines
    mem_addrs = core._mem_addrs
    mem_deps = core._mem_deps
    dep0 = core._dep0
    dep1 = core._dep1
    heappush = heapq.heappush
    heappop = heapq.heappop
    fetch_latency = core.hierarchy.fetch_latency
    data_latency = core.hierarchy.data_latency
    gshare_update = core.gshare.predict_and_update
    indirect_update = core.indirect_predictor.predict_and_update
    predicts_dependence = core.store_sets.predicts_dependence
    train_violation = core.store_sets.train_violation
    spawn_unit = core.spawn_unit
    record_task_instructions = spawn_unit.record_task_instructions
    spawn_targets = spawn_unit.resolved_targets()
    suppressed = spawn_unit.suppressed_triggers_live()

    width = config.width
    units = config.functional_units
    mul_latency = config.mul_latency
    mispredict_penalty = config.mispredict_penalty
    frontend_latency = config.frontend_latency
    quota = config.scheduler_per_task_quota
    max_tasks = config.max_tasks
    fetch_ports = config.fetch_tasks_per_cycle
    rob_entries = config.rob_entries
    sched_entries = config.scheduler_entries
    divert_entries = config.divert_queue_entries
    restart_penalty = config.squash_restart_penalty
    shared_rob_cap = rob_entries - _HEAD_ROB_RESERVE
    shared_sched_cap = sched_entries - _HEAD_SCHED_RESERVE
    release_state = _WAIT if config.divert_release == "dispatch" else _DONE

    count = len(pcs)

    run_end = core._run_end
    reg_consumers = core._reg_consumers
    plain_end = core._plain_end

    # The two calendars (cycle -> bucket).  Completion buckets hold
    # trace indices; wake-up buckets hold indices or (start, end) runs.
    complete_events = {}
    ready_events = {}
    # Divert-FIFO epochs: bumped only when a *diverted* index is
    # squashed, so a stale FIFO entry reads as a mismatch exactly where
    # the reference engines see a generation mismatch (see module doc).
    divert_epoch = [0] * count
    # Tasks stalled on an unresolved transfer, keyed by the trace index
    # they wait on (scrubbed at squash; at most one live waiter each).
    waiting_branches = {}

    fetch_wake = 0
    fifo_dirty = True
    # Conservative until the first full scan proves otherwise: issuing
    # re-dirties the queue only while a scan has turned an entry away
    # on scheduler capacity or per-task quota.
    fifo_capacity_blocked = True
    completions_dirty = release_state == _DONE

    run_cap = width if width > units else units
    done_runs = [bytes([_DONE]) * size for size in range(run_cap + 1)]
    retired_runs = [bytes([_RETIRED]) * size for size in range(width + 1)]
    exec_runs = [bytes([_EXEC]) * size for size in range(units + 1)]
    ready_runs = [bytes([_READY]) * size for size in range(units + 1)]
    max_cycles = core.max_cycles
    cycle = core._cycle
    retire_ptr = core._retire_ptr
    rob_occupancy = core._rob_occupancy
    sched_occupancy = core._sched_occupancy
    divert_occupancy = core._divert_occupancy

    retired_total = 0
    fetched_total = 0
    diverted_total = 0
    occupancy_sum = 0
    icache_stalls = 0
    cond_branches = 0
    branch_misses = 0
    indirect_misses = 0
    return_misses = 0

    def origin_of(task):
        point = task.spawn_point
        return point.trigger_pc if point is not None else None

    def enter_scheduler(index):
        # Transcription of core._enter_scheduler: rs-then-rt producer
        # registration, register wake-ups through the static
        # reg_consumers adjacency (the dependents dict keeps memory
        # dependences only), live entries need no generation tag.
        nonlocal sched_occupancy
        pending = 0
        producer = dep0[index]
        if producer >= 0 and state[producer] < _DONE:
            pending += 1
        producer = dep1[index]
        if producer >= 0 and state[producer] < _DONE:
            pending += 1
        if lats[index] == LAT_LOAD:
            producer = mem_deps[index]
            if producer >= 0 and index not in unsafe_mem and state[producer] < _DONE:
                bucket = dependents.get(producer)
                if bucket is None:
                    dependents[producer] = [index]
                else:
                    bucket.append(index)
                pending += 1
        sched_occupancy += 1
        task_owner = owner[index]
        sched_used[task_owner] = sched_used.get(task_owner, 0) + 1
        wait_count[index] = pending
        if pending:
            state[index] = _WAIT
        else:
            state[index] = _READY
            ready_at = earliest[index]
            if ready_at <= cycle:
                ready_at = cycle + 1
            bucket = ready_events.get(ready_at)
            if bucket is None:
                ready_events[ready_at] = [index]
            else:
                bucket.append(index)

    def squash_tasks(position, cause):
        # Transcription of core._squash_from, plus the eager scrub that
        # replaces generation counters: tasks own contiguous,
        # trace-ordered segments, so everything belonging to the
        # squashed suffix sits at or past the first squashed task's
        # start index, and one range predicate cleans every structure.
        nonlocal rob_occupancy, sched_occupancy, divert_occupancy
        chain = list(tasks)[position:]
        chain_depth = len(chain)
        cutoff = chain[0].start_index
        for task in chain:
            squashed = 0
            for index in range(task.start_index, task.fetch_index):
                current = state[index]
                if current == _FREE:
                    continue
                if current == _DIVERT:
                    divert_occupancy -= 1
                    divert_epoch[index] += 1
                    divert_producer_map.pop(index, None)
                elif current == _WAIT or current == _READY:
                    sched_occupancy -= 1
                    sched_used[owner[index]] -= 1
                state[index] = _FREE
                rob_occupancy -= 1
                dependents.pop(index, None)
                unsafe_mem.pop(index, None)
                squashed += 1
            task.reset_for_squash(cycle, restart_penalty)
            bus.emit(
                TaskSquashed(
                    cycle,
                    task.task_id,
                    task.start_index,
                    pcs[task.start_index],
                    origin_of(task),
                    cause,
                    chain_depth,
                    squashed,
                )
            )
        for calendar in (complete_events, ready_events):
            for at in list(calendar):
                bucket = calendar[at]
                kept = [
                    entry
                    for entry in bucket
                    if (entry if entry.__class__ is int else entry[0]) < cutoff
                ]
                if len(kept) != len(bucket):
                    if kept:
                        calendar[at] = kept
                    else:
                        del calendar[at]
        if heap:
            kept = [index for index in heap if index < cutoff]
            if len(kept) != len(heap):
                heap[:] = kept
                heapq.heapify(heap)
        # The divert FIFO is scrubbed lazily via divert_epoch (above).
        for producer in list(dependents):
            bucket = dependents[producer]
            kept = [consumer for consumer in bucket if consumer < cutoff]
            if len(kept) != len(bucket):
                if kept:
                    dependents[producer] = kept
                else:
                    del dependents[producer]
        for index in list(waiting_branches):
            if index >= cutoff:
                del waiting_branches[index]

    def handle_violation(load_index, store_index):
        store_pc = pcs[store_index]
        load_pc = pcs[load_index]
        train_violation(store_pc, load_pc)
        position = core._task_position_of_index(load_index)
        violator = tasks[position]
        if violator.spawn_point is not None:
            spawn_unit.record_squash(violator.spawn_point.trigger_pc)
        bus.emit(
            DependenceViolation(
                cycle,
                violator.task_id,
                load_index,
                load_pc,
                origin_of(violator),
                store_index,
                store_pc,
            )
        )
        squash_tasks(position, "memory-dependence")

    def wake_consumer(consumer):
        # One producer of a _WAIT consumer completed; schedule the
        # wake-up when the count drains.  Callers pre-check the state.
        pending = wait_count[consumer] - 1
        wait_count[consumer] = pending
        if pending == 0:
            state[consumer] = _READY
            ready_at = earliest[consumer]
            if ready_at <= cycle:
                ready_at = cycle + 1
            bucket = ready_events.get(ready_at)
            if bucket is None:
                ready_events[ready_at] = [consumer]
            else:
                bucket.append(consumer)

    try:
        while retire_ptr < count:
            cycle += 1
            core._cycle = cycle
            if cycle > max_cycles:
                raise SimulationError(
                    "no forward progress after {} cycles (retired {}/{})".format(
                        max_cycles, retire_ptr, count
                    )
                )
            # Divert/issue/violation activity this cycle; consulted
            # (with the fetch watermark) by the time skip.
            active = False
            fetch_mark = fetched_total
            # A plain wake-up run eligible for batch issue this cycle
            # (detected while processing the wake-up calendar, issued
            # in the issue stage so the drain sees the same scheduler
            # occupancy as the staged engine).
            pending_batch = None

            # ---- process completions -------------------------------
            bucket = complete_events.pop(cycle, None)
            if bucket is not None:
                if completions_dirty:
                    fifo_dirty = True
                for index in bucket:
                    if index.__class__ is not int:
                        # (start, end) completion of a plain-run batch.
                        run_start, run_limit = index
                        state[run_start:run_limit] = done_runs[
                            run_limit - run_start
                        ]
                        for position in range(run_start, run_limit):
                            for consumer in reg_consumers[position]:
                                # wake_consumer, inlined (hot path).
                                if state[consumer] == _WAIT:
                                    pending = wait_count[consumer] - 1
                                    wait_count[consumer] = pending
                                    if pending == 0:
                                        state[consumer] = _READY
                                        ready_at = earliest[consumer]
                                        if ready_at <= cycle:
                                            ready_at = cycle + 1
                                        waking = ready_events.get(ready_at)
                                        if waking is None:
                                            ready_events[ready_at] = [consumer]
                                        else:
                                            waking.append(consumer)
                        continue
                    if state[index] != _EXEC:
                        continue
                    state[index] = _DONE
                    if waiting_branches:
                        waiter = waiting_branches.pop(index, None)
                        if (
                            waiter is not None
                            and waiter.waiting_branch_index == index
                        ):
                            resume = fetch_cycle[index] + mispredict_penalty
                            if resume < cycle + 1:
                                resume = cycle + 1
                            waiter.waiting_branch_index = None
                            waiter.fetch_stall_until = resume
                            fetch_wake = 0
                    for consumer in reg_consumers[index]:
                        # wake_consumer, inlined (hot path).
                        if state[consumer] == _WAIT:
                            pending = wait_count[consumer] - 1
                            wait_count[consumer] = pending
                            if pending == 0:
                                state[consumer] = _READY
                                ready_at = earliest[consumer]
                                if ready_at <= cycle:
                                    ready_at = cycle + 1
                                waking = ready_events.get(ready_at)
                                if waking is None:
                                    ready_events[ready_at] = [consumer]
                                else:
                                    waking.append(consumer)
                    # Only memory dependences live in the dict, and
                    # their producers are stores.
                    if lats[index] != LAT_STORE:
                        continue
                    consumers = dependents.pop(index, None)
                    if not consumers:
                        continue
                    for consumer in consumers:
                        if state[consumer] == _WAIT:
                            wake_consumer(consumer)

            # ---- process wake-ups ----------------------------------
            bucket = ready_events.pop(cycle, None)
            if bucket is not None:
                for entry in bucket:
                    if entry.__class__ is int:
                        if state[entry] == _READY:
                            heappush(heap, entry)
                        continue
                    run_start, run_limit = entry
                    # Plain-run batch candidate: the run is the *only*
                    # work that can become ready this cycle (sole
                    # bucket entry, empty heap), it fits the issue
                    # width, every position is still _READY, and it
                    # contains no load, store or multiply — so the
                    # per-index min-first issue order is unobservable
                    # (no cache access, uniform 1-cycle latency) and
                    # the whole run can issue as one batch with a
                    # single range completion next cycle.  The issue
                    # itself is deferred to the issue stage so retire
                    # and the divert drain observe the same scheduler
                    # occupancy as the staged engine.  Anything
                    # else falls back to per-index heap scheduling.
                    span = run_limit - run_start
                    if (
                        not heap
                        and len(bucket) == 1
                        and span <= units
                        and plain_end[run_start] >= run_limit
                        and state[run_start:run_limit] == ready_runs[span]
                    ):
                        pending_batch = entry
                        continue
                    for position in range(run_start, run_limit):
                        if state[position] == _READY:
                            heappush(heap, position)

            # ---- retire --------------------------------------------
            if state[retire_ptr] == _DONE:
                retired = 0
                head_popped = False
                while retired < width and retire_ptr < count:
                    head = tasks[0]
                    head_end = head.end_index
                    limit = retire_ptr + width - retired
                    if limit > count:
                        limit = count
                    if head_end is not None and head_end < limit:
                        limit = head_end
                    span = limit - retire_ptr
                    probe = state[retire_ptr:limit]
                    if probe == done_runs[span]:
                        committed = span
                    else:
                        committed = 0
                        for value in probe:
                            if value != _DONE:
                                break
                            committed += 1
                        if committed == 0:
                            break
                    state[retire_ptr : retire_ptr + committed] = retired_runs[
                        committed
                    ]
                    rob_occupancy -= committed
                    retire_ptr += committed
                    retired += committed
                    head.in_flight -= committed
                    if head_end is not None and retire_ptr >= head_end:
                        tasks.popleft()
                        core._emit_task_commit(head, head_end)
                        head_popped = True
                    if committed < span:
                        break
                retired_total += retired
                # Retiring can change a drain outcome in exactly two
                # ways: the head task popped (entry ownership and the
                # head scheduler cap shift) or the new retire head is
                # itself a diverted entry (the oldest-release path).
                # Producer-blocked entries are indifferent to retire:
                # _DONE -> _RETIRED stays >= the release threshold.
                if retired and (
                    head_popped
                    or (retire_ptr < count and state[retire_ptr] == _DIVERT)
                ):
                    fifo_dirty = True

            # ---- drain divert queue --------------------------------
            if fifo and fifo_dirty:
                oldest = retire_ptr
                if state[oldest] == _DIVERT:
                    blocked = False
                    for producer in divert_producer_map[oldest]:
                        if state[producer] < _WAIT:
                            blocked = True
                            break
                    if not blocked:
                        oldest_epoch = divert_epoch[oldest]
                        for position, entry in enumerate(fifo):
                            if entry[0] == oldest and entry[1] == oldest_epoch:
                                del fifo[position]
                                break
                        del divert_producer_map[oldest]
                        divert_occupancy -= 1
                        enter_scheduler(oldest)
                        active = True
                if fifo:
                    moved = 0
                    scanned = 0
                    deleted = False
                    capacity_blocked = False
                    head = tasks[0] if tasks else None
                    head_end = head.end_index if head is not None else None
                    index_in_fifo = 0
                    while index_in_fifo < len(fifo) and scanned < 64:
                        entry_index, entry_epoch = fifo[index_in_fifo]
                        scanned += 1
                        if (
                            divert_epoch[entry_index] != entry_epoch
                            or state[entry_index] != _DIVERT
                        ):
                            # Squashed entry: lazily delete (counted
                            # against the scan budget, exactly like the
                            # staged engine's generation check).
                            del fifo[index_in_fifo]
                            deleted = True
                            continue
                        blocked = False
                        for producer in divert_producer_map[entry_index]:
                            if state[producer] < release_state:
                                blocked = True
                                break
                        if blocked:
                            index_in_fifo += 1
                            continue
                        owned_by_head = head is not None and (
                            head_end is None or entry_index < head_end
                        )
                        cap = sched_entries if owned_by_head else shared_sched_cap
                        if sched_occupancy >= cap:
                            capacity_blocked = True
                            index_in_fifo += 1
                            continue
                        if not owned_by_head and (
                            sched_used.get(owner[entry_index], 0) >= quota
                        ):
                            capacity_blocked = True
                            index_in_fifo += 1
                            continue
                        del fifo[index_in_fifo]
                        del divert_producer_map[entry_index]
                        divert_occupancy -= 1
                        enter_scheduler(entry_index)
                        moved += 1
                        if moved >= width:
                            break
                    if moved:
                        active = True
                    # Whether any surviving entry was turned away on
                    # scheduler capacity or quota; until then, issuing
                    # (which only *frees* those) cannot change a drain
                    # outcome, so the issue stage re-dirties the queue
                    # only when this is set.
                    fifo_capacity_blocked = capacity_blocked
                    # A deletion shifts later entries into the scan
                    # window, so the next cycle's scan can reach
                    # entries this one could not — rescan, exactly as
                    # the staged engine would.
                    fifo_dirty = active or deleted
                else:
                    fifo_dirty = active

            # ---- issue ---------------------------------------------
            if pending_batch is not None:
                # The candidate run validated during wake-up processing
                # is still intact: retire only touches _DONE prefixes
                # and the drain only admits *new* scheduler entries, so
                # no stage between there and here can disturb a _READY
                # run.  Issue it whole — the heap is necessarily empty
                # (a detection precondition nothing since violated).
                run_start, run_limit = pending_batch
                span = run_limit - run_start
                state[run_start:run_limit] = exec_runs[span]
                sched_occupancy -= span
                sched_used[owner[run_start]] -= span
                complete_at = cycle + 1
                completion = (run_start, run_limit)
                complete_bucket = complete_events.get(complete_at)
                if complete_bucket is None:
                    complete_events[complete_at] = [completion]
                else:
                    complete_bucket.append(completion)
                active = True
                if fifo_capacity_blocked:
                    fifo_dirty = True
            elif heap:
                issued = 0
                deferred = None
                violated = False
                while heap and issued < units:
                    index = heappop(heap)
                    if state[index] != _READY:
                        continue
                    if earliest[index] > cycle:
                        if deferred is None:
                            deferred = [index]
                        else:
                            deferred.append(index)
                        continue
                    lat = lats[index]
                    if lat == LAT_LOAD:
                        unsafe_producer = unsafe_mem.get(index)
                        if (
                            unsafe_producer is not None
                            and state[unsafe_producer] < _DONE
                        ):
                            handle_violation(index, unsafe_producer)
                            active = True
                            fifo_dirty = True
                            fetch_wake = 0
                            violated = True
                            # The violator (and the heap contents from
                            # younger tasks) were squashed; issue no
                            # more this cycle.
                            break
                        latency = data_latency(mem_addrs[index])
                    elif lat == LAT_STORE:
                        data_latency(mem_addrs[index])
                        latency = 1
                    elif lat == LAT_MUL:
                        latency = mul_latency
                    else:
                        latency = 1
                    state[index] = _EXEC
                    sched_occupancy -= 1
                    sched_used[owner[index]] -= 1
                    complete_at = cycle + latency
                    complete_bucket = complete_events.get(complete_at)
                    if complete_bucket is None:
                        complete_events[complete_at] = [index]
                    else:
                        complete_bucket.append(index)
                    issued += 1
                if issued:
                    active = True
                    # Issuing frees scheduler slots and quota — which
                    # can only matter to a drain that was turned away
                    # on capacity, never to a producer-blocked one.
                    if fifo_capacity_blocked:
                        fifo_dirty = True
                if deferred is not None:
                    if violated:
                        # The squash scrub already cleaned the heap;
                        # only survivors may re-enter it.
                        for index in deferred:
                            if state[index] == _READY:
                                heappush(heap, index)
                    else:
                        for index in deferred:
                            heappush(heap, index)

            # ---- fetch ---------------------------------------------
            # Biased-ICount arbitration, inlined for the standard one-
            # and two-port configurations: the oldest fetch-ready task
            # takes the first port, the lowest (in_flight, age)
            # candidate among the rest the second.
            if cycle < fetch_wake:
                selected = ()
                share = width
            elif fetch_ports <= 2:
                first = None
                second = None
                second_key = None
                position = 0
                for task in tasks:
                    if (
                        task.waiting_branch_index is None
                        and cycle >= task.fetch_stall_until
                        and (
                            task.end_index is None
                            or task.fetch_index < task.end_index
                        )
                    ):
                        if first is None:
                            first = task
                        else:
                            key = (task.in_flight, position)
                            if second_key is None or key < second_key:
                                second_key = key
                                second = task
                    position += 1
                if fetch_ports == 1:
                    second = None
                if first is None:
                    selected = ()
                    share = width
                    wake_f = max_cycles + 2
                    for task in tasks:
                        if task.waiting_branch_index is None and (
                            task.end_index is None
                            or task.fetch_index < task.end_index
                        ):
                            stall = task.fetch_stall_until
                            if stall < wake_f:
                                wake_f = stall
                    fetch_wake = wake_f
                elif second is None:
                    selected = (first,)
                    share = width
                else:
                    selected = (first, second)
                    share = width // 2
            else:  # nonstandard port counts: generic arbitration
                candidates = []
                position = 0
                for task in tasks:
                    if task.can_fetch(cycle):
                        candidates.append((task.task_id, task.in_flight, position))
                    position += 1
                if candidates:
                    chosen = select_fetch_tasks(
                        candidates, fetch_ports, config.head_bias
                    )
                    by_id = {task.task_id: task for task in tasks}
                    selected = tuple(by_id[task_id] for task_id in chosen)
                    share = width // max(len(selected), 1)
                else:
                    selected = ()
                    share = width

            for task in selected:
                budget = share
                is_head = task is tasks[0]
                if is_head:
                    rob_cap = rob_entries
                    sched_cap = sched_entries
                else:
                    rob_cap = shared_rob_cap
                    sched_cap = shared_sched_cap
                task_id = task.task_id
                start = task.start_index
                ras = task.ras
                point = task.spawn_point
                spawn_trigger = point.trigger_pc if point is not None else None
                burst_instructions = 0
                burst_diverts = 0

                while budget > 0:
                    index = task.fetch_index
                    if index >= count:
                        break
                    end_index = task.end_index
                    if end_index is not None and index >= end_index:
                        break
                    if rob_occupancy >= rob_cap:
                        break
                    pc = pcs[index]

                    # Instruction cache: one access per new line.
                    line = lines[index]
                    if line != task.last_fetch_line:
                        latency = fetch_latency(pc)
                        task.last_fetch_line = line
                        if latency > 1:
                            task.fetch_stall_until = cycle + latency
                            icache_stalls += latency - 1
                            break

                    # ---- batched block fetch -----------------------
                    # Consume a compiled straight-line run in one inner
                    # loop: no control transfers, no spawn candidates,
                    # no new I-cache lines inside the run (run_end
                    # guarantees all three), so only the dependence
                    # bookkeeping remains.  Aborts at the first cross-
                    # task live dependence — the per-instruction path
                    # below owns the divert/store-set decision —
                    # committing the prefix fetched so far.
                    if run_end[index] - index >= 2:
                        limit = run_end[index]
                        bound = index + budget
                        if bound < limit:
                            limit = bound
                        if end_index is not None and end_index < limit:
                            limit = end_index
                        bound = index + rob_cap - rob_occupancy
                        if bound < limit:
                            limit = bound
                        bound = index + sched_cap - sched_occupancy
                        if bound < limit:
                            limit = bound
                        if not is_head:
                            bound = index + quota - sched_used.get(task_id, 0)
                            if bound < limit:
                                limit = bound
                        if limit - index >= 2:
                            bstart = index
                            position = index
                            early = cycle + frontend_latency
                            ready_at = early if early > cycle else cycle + 1
                            ready_positions = None
                            while position < limit:
                                # All dispatch decisions are made before
                                # any mutation, so an abort leaves
                                # `position` untouched.  mem_dep is -1
                                # on every non-load by construction.
                                producer = dep0[position]
                                producer1 = dep1[position]
                                mem_producer = mem_deps[position]
                                pending = 0
                                if producer >= 0:
                                    if producer >= bstart:
                                        # Fetched this cycle: still in
                                        # flight by construction.
                                        pending += 1
                                    elif state[producer] < _DONE:
                                        if producer < start:
                                            break
                                        pending += 1
                                if producer1 >= 0:
                                    if producer1 >= bstart:
                                        pending += 1
                                    elif state[producer1] < _DONE:
                                        if producer1 < start:
                                            break
                                        pending += 1
                                if mem_producer >= 0 and (
                                    mem_producer >= bstart
                                    or state[mem_producer] < _DONE
                                ):
                                    if mem_producer < start:
                                        break
                                    pending += 1
                                    dep_bucket = dependents.get(mem_producer)
                                    if dep_bucket is None:
                                        dependents[mem_producer] = [position]
                                    else:
                                        dep_bucket.append(position)
                                owner[position] = task_id
                                earliest[position] = early
                                wait_count[position] = pending
                                if pending:
                                    state[position] = _WAIT
                                else:
                                    state[position] = _READY
                                    if ready_positions is None:
                                        ready_positions = [position]
                                    else:
                                        ready_positions.append(position)
                                position += 1
                            batched = position - bstart
                            if batched:
                                if ready_positions is not None:
                                    # A range entry may only cover
                                    # positions ready *at fetch*: a
                                    # position woken by a completion
                                    # later the same cycle the range
                                    # fires is _READY too, and a
                                    # whole-batch range would sweep it
                                    # into the heap one cycle before
                                    # its own wake-up event — earlier
                                    # than the staged engine
                                    # issues it.  Mixed batches fall
                                    # back to per-position entries.
                                    if len(ready_positions) == batched:
                                        entry = (bstart, position)
                                        ready_bucket = ready_events.get(
                                            ready_at
                                        )
                                        if ready_bucket is None:
                                            ready_events[ready_at] = [entry]
                                        else:
                                            ready_bucket.append(entry)
                                    else:
                                        ready_bucket = ready_events.get(
                                            ready_at
                                        )
                                        if ready_bucket is None:
                                            ready_events[ready_at] = (
                                                ready_positions
                                            )
                                        else:
                                            ready_bucket.extend(
                                                ready_positions
                                            )
                                task.fetch_index = position
                                task.in_flight += batched
                                rob_occupancy += batched
                                sched_occupancy += batched
                                sched_used[task_id] = (
                                    sched_used.get(task_id, 0) + batched
                                )
                                fetched_total += batched
                                budget -= batched
                                if spawn_trigger is not None:
                                    burst_instructions += batched
                                continue
                            # Zero-length batch (the very first
                            # instruction crosses tasks): fall through
                            # to the per-instruction path.

                    # Decide the dispatch target (see the staged
                    # _fetch_from_task for the full rationale).
                    producers = None
                    unsafe_producer = None
                    producer = dep0[index]
                    if 0 <= producer < start and state[producer] < _DONE:
                        producers = [producer]
                    producer = dep1[index]
                    if 0 <= producer < start and state[producer] < _DONE:
                        if producers is None:
                            producers = [producer]
                        else:
                            producers.append(producer)
                    if lats[index] == LAT_LOAD:
                        mem_producer = mem_deps[index]
                        if (
                            0 <= mem_producer < start
                            and state[mem_producer] < _DONE
                        ):
                            if predicts_dependence(pcs[mem_producer], pc):
                                if producers is None:
                                    producers = [mem_producer]
                                else:
                                    producers.append(mem_producer)
                            else:
                                unsafe_producer = mem_producer

                    # Check the dispatch target's capacity.
                    if producers is not None:
                        if divert_occupancy >= divert_entries:
                            break
                    else:
                        if sched_occupancy >= sched_cap:
                            break
                        if not is_head and sched_used.get(task_id, 0) >= quota:
                            break

                    # Consume the instruction.
                    task.fetch_index = index + 1
                    task.in_flight += 1
                    rob_occupancy += 1
                    owner[index] = task_id
                    earliest[index] = cycle + frontend_latency
                    fetched_total += 1
                    if unsafe_producer is not None:
                        unsafe_mem[index] = unsafe_producer
                    budget -= 1

                    if producers is not None:
                        state[index] = _DIVERT
                        divert_occupancy += 1
                        divert_producer_map[index] = producers
                        fifo.append((index, divert_epoch[index]))
                        diverted_total += 1
                        if spawn_trigger is not None:
                            burst_instructions += 1
                            burst_diverts += 1
                    else:
                        # Inlined scheduler entry (the closure above is
                        # the shared transcription; this is the same
                        # body on the hottest path).
                        pending = 0
                        producer = dep0[index]
                        if producer >= 0 and state[producer] < _DONE:
                            pending += 1
                        producer = dep1[index]
                        if producer >= 0 and state[producer] < _DONE:
                            pending += 1
                        if lats[index] == LAT_LOAD:
                            producer = mem_deps[index]
                            if (
                                producer >= 0
                                and index not in unsafe_mem
                                and state[producer] < _DONE
                            ):
                                dep_bucket = dependents.get(producer)
                                if dep_bucket is None:
                                    dependents[producer] = [index]
                                else:
                                    dep_bucket.append(index)
                                pending += 1
                        sched_occupancy += 1
                        sched_used[task_id] = sched_used.get(task_id, 0) + 1
                        wait_count[index] = pending
                        if pending:
                            state[index] = _WAIT
                        else:
                            state[index] = _READY
                            ready_at = earliest[index]
                            if ready_at <= cycle:
                                ready_at = cycle + 1
                            ready_bucket = ready_events.get(ready_at)
                            if ready_bucket is None:
                                ready_events[ready_at] = [index]
                            else:
                                ready_bucket.append(index)
                        if spawn_trigger is not None:
                            burst_instructions += 1

                    # Spawning: only the tail task spawns (the kernel
                    # never runs with nested_spawns).
                    if len(tasks) < max_tasks:
                        if task.end_index is None and task is tasks[-1]:
                            target = spawn_targets[index]
                            if target >= 0 and pc not in suppressed:
                                core._spawn(task, pc, target, index)

                    # Control flow effects on fetch.  fetch_cycle is
                    # written only where a transfer actually waits: it
                    # is read back solely at branch resolution.
                    kind = kinds[index]
                    if kind:
                        if kind == KIND_COND_BRANCH:
                            cond_branches += 1
                            taken = takens[index]
                            if gshare_update(pc, taken) != taken:
                                branch_misses += 1
                                task.waiting_branch_index = index
                                waiting_branches[index] = task
                                fetch_cycle[index] = cycle
                                break
                            if taken:
                                break  # one taken branch per cycle
                        else:
                            if kind == KIND_CALL_DIRECT:
                                ras.push(fall_throughs[index])
                            elif kind == KIND_CALL_INDIRECT:
                                ras.push(fall_throughs[index])
                                if not indirect_update(pc, next_pcs[index]):
                                    indirect_misses += 1
                                    task.waiting_branch_index = index
                                    waiting_branches[index] = task
                                    fetch_cycle[index] = cycle
                            elif kind == KIND_RETURN:
                                if ras.pop() != next_pcs[index]:
                                    return_misses += 1
                                    task.waiting_branch_index = index
                                    waiting_branches[index] = task
                                    fetch_cycle[index] = cycle
                            elif kind == KIND_SWITCH:
                                if not indirect_update(pc, next_pcs[index]):
                                    indirect_misses += 1
                                    task.waiting_branch_index = index
                                    waiting_branches[index] = task
                                    fetch_cycle[index] = cycle
                            # Every non-branch transfer ends the fetch
                            # stream.
                            break

                if burst_instructions:
                    record_task_instructions(
                        spawn_trigger, burst_instructions, burst_diverts
                    )

            if fetched_total != fetch_mark:
                # Any fetch can matter to the drain: besides appending
                # divert entries, an *older* task fetching a plain
                # dispatch may be the producer an already-diverted
                # younger-task entry blocks on (_FREE -> _WAIT crosses
                # the dispatch-release threshold).
                fifo_dirty = True

            occupancy_sum += len(tasks)

            # ---- time skip -----------------------------------------
            # A cycle in which nothing can change — no ready work,
            # nothing retirable, every task fetch-inert, and the divert
            # queue provably frozen — is a pure no-op until the next
            # calendar entry or fetch timer, so jump straight there.
            # Every state transition is driven by a calendar bucket, a
            # fetch timer expiring, or a same-cycle prior-stage change;
            # the first two bound the jump and the third cannot occur in
            # a cycle that starts quiet.  Only the per-cycle occupancy
            # statistic accrues across the gap, added in closed form.
            if (
                not heap
                and cycle + 1 not in complete_events
                and cycle + 1 not in ready_events
                and retire_ptr < count
                and state[retire_ptr] != _DONE
                and (not fifo or (not active and fetched_total == fetch_mark))
            ):
                wake = min(complete_events) if complete_events else None
                if ready_events:
                    ready_wake = min(ready_events)
                    if wake is None or ready_wake < wake:
                        wake = ready_wake
                skip_ok = True
                head_task = tasks[0] if tasks else None
                next_cycle = cycle + 1
                for task in tasks:
                    if task.waiting_branch_index is not None:
                        continue  # resumes via a completion event
                    findex = task.fetch_index
                    end_i = task.end_index
                    if findex >= (count if end_i is None else end_i):
                        continue  # done fetching
                    stall = task.fetch_stall_until
                    if stall > next_cycle:
                        if wake is None or stall < wake:
                            wake = stall
                        continue
                    is_head = task is head_task
                    if rob_occupancy >= (
                        rob_entries if is_head else shared_rob_cap
                    ):
                        continue  # unblocked only by retire (events)
                    if lines[findex] != task.last_fetch_line:
                        skip_ok = False  # next fetch probes the I-cache
                        break
                    # A capacity-blocked fetch breaks before any
                    # mutation; reconstruct which structure gates the
                    # next instruction (all inputs are frozen while the
                    # machine is quiet).
                    start = task.start_index
                    producer = dep0[findex]
                    live = 0 <= producer < start and state[producer] < _DONE
                    if not live:
                        producer = dep1[findex]
                        live = 0 <= producer < start and state[producer] < _DONE
                    if live:
                        if divert_occupancy >= divert_entries:
                            continue  # divert queue full: inert
                        skip_ok = False
                        break
                    mem_live = False
                    if lats[findex] == LAT_LOAD:
                        producer = mem_deps[findex]
                        mem_live = (
                            0 <= producer < start and state[producer] < _DONE
                        )
                    sched_full = sched_occupancy >= (
                        sched_entries if is_head else shared_sched_cap
                    ) or (
                        not is_head
                        and sched_used.get(task.task_id, 0) >= quota
                    )
                    if mem_live:
                        # Store-set prediction picks divert or
                        # scheduler; inert only when both are full.
                        if sched_full and divert_occupancy >= divert_entries:
                            continue
                        skip_ok = False
                        break
                    if sched_full:
                        continue
                    skip_ok = False
                    break
                if skip_ok and wake is not None and wake > next_cycle:
                    occupancy_sum += (wake - next_cycle) * len(tasks)
                    cycle = wake - 1
    finally:
        core._cycle = cycle
        core._retire_ptr = retire_ptr
        core._rob_occupancy = rob_occupancy
        core._sched_occupancy = sched_occupancy
        core._divert_occupancy = divert_occupancy
        stats.retired_instructions += retired_total
        stats.fetched_instructions += fetched_total
        stats.diverted_instructions += diverted_total
        stats.task_occupancy_sum += occupancy_sum
        stats.icache_stall_cycles += icache_stalls
        stats.conditional_branches += cond_branches
        stats.branch_mispredicts += branch_misses
        stats.indirect_mispredicts += indirect_misses
        stats.return_mispredicts += return_misses
