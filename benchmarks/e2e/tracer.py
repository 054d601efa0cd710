"""Outside-in layer tracer for the end-to-end benchmark.

The tracer replaces the public entry points of each layer of the stack
with timing wrappers, from the benchmark's own files, so no program file
changes.  :data:`TARGETS` is the layer table: every entry names one
callable as ``module:qualname`` and the layer its time is charged to.
Installing patches the defining module or class *and* every ``repro``
module that copied the name with ``from x import f``, so callers that
bound the function at import time are traced too.  A target that no
longer exists makes :meth:`Tracer.install` raise, and the benchmark's
coverage test fails when a wrapped target never fires, so renaming a
function cannot silently move its time into its caller.

Spans are kept in memory while a *region* is open: target, start and end
(``perf_counter_ns``), parent span and thread.  Each thread has its own
span stack, so self time -- a span's duration minus the part its child
spans cover -- stays exact on the exploration service's threads.  Forked
pool workers stop recording (their time shows in the parent as dispatch
wait).  :meth:`Tracer.chrome_trace` writes the spans in Chrome
trace-event format (``ph: "X"``), which Perfetto opens.
"""

import collections
import contextvars
import functools
import importlib
import os
import sys
import threading
import time
import weakref

from measure import percentile

#: Per-layer metrics that are not ``<layer>.self_s``/``<layer>.calls``.
#: The admission queue and the HTTP server report waits, not busy time.
WAIT_LAYERS = ("service.admission", "service.server")


class Target:
    """One traced callable: ``module:qualname`` charged to ``layer``.

    ``after(tracer, span, args, kwargs, result)`` books counters when a
    recorded call returns; ``before(tracer, args)`` runs as a recorded
    call starts; ``finish(tracer, args)`` runs when a traced generator is
    exhausted.  Hooks run outside the span's timed interval.
    """

    __slots__ = ("layer", "module", "qualname", "generator", "before", "after", "finish")

    def __init__(
        self, layer, path, generator=False, before=None, after=None, finish=None
    ):
        self.layer = layer
        self.module, _, self.qualname = path.partition(":")
        self.generator = generator
        self.before = before
        self.after = after
        self.finish = finish

    def __repr__(self):
        return "Target({!r}, '{}:{}')".format(self.layer, self.module, self.qualname)


# -- counter hooks ------------------------------------------------------------------


def _instructions(tracer, span, args, kwargs, result):
    tracer.count("sim.functional.instructions", len(result))


def _gridbatch_cells(tracer, span, args, kwargs, result):
    jobs = args[0] if args else kwargs["jobs"]
    tracer.count("sim.gridbatch.cells", len(jobs))


def _chunks(tracer, span, args, kwargs, result):
    tracer.count("experiments.scheduler.chunks", len(result.chunks))


def _entry_bytes(cache, args, kwargs):
    digest = kwargs.get("digest", args[1] if len(args) > 1 else None)
    try:
        return os.path.getsize(cache.path(digest))
    except OSError:
        return 0


def _bytes_read(tracer, span, args, kwargs, result):
    if result is not None:
        tracer.count(
            "experiments.parallel.cache_load.bytes_read",
            _entry_bytes(args[0], args, kwargs),
        )


def _bytes_written(tracer, span, args, kwargs, result):
    tracer.count(
        "experiments.parallel.cache_store.bytes_written",
        _entry_bytes(args[0], args, kwargs),
    )


def _core_finished(tracer, args):
    stats = args[0].stats
    tracer.count("polyflow.retired", stats.retired_instructions)
    tracer.count("polyflow.cycles", stats.cycles)


def _batch_started(tracer, args):
    engine, batch = args[0], args[1]
    now = time.monotonic()
    with tracer.lock:
        if tracer.engine is None:
            tracer.engine = engine
            tracer.engine_before = (engine.cells_deduped, engine.cells_served)
        for query in batch:
            wait = now - query.admitted_at
            tracer.admission_waits.append(wait)
            tracer.query_timings[id(query)] = [wait, 0.0]


def _batch_done(tracer, span, args, kwargs, result):
    batch = args[1]
    seconds = (span[2] - span[1]) / 1e9
    with tracer.lock:
        tracer.counters["service.admission.batches"] += 1
        tracer.counters["service.admission.batch_queries"] += len(batch)
        for query in batch:
            timing = tracer.query_timings.get(id(query))
            if timing is not None:
                timing[1] = seconds


#: The layer table.  Order is the order per-layer metrics are reported in.
TARGETS = (
    Target("workloads", "repro.workloads.suite:workload_source"),
    Target("isa.assemble", "repro.isa.assembler:assemble"),
    Target("sim.functional", "repro.sim.functional:run_program", after=_instructions),
    Target("cfg", "repro.cfg.builder:build_program_cfgs"),
    Target("spawn.classify", "repro.spawn.policies:SpawnAnalysis.__init__"),
    Target("spawn.profile", "repro.spawn.profiling:profile_spawn_points"),
    Target("sim.blocks", "repro.sim.blocks:block_table_for"),
    Target("sim.blocks", "repro.sim.blocks:program_blocks_for"),
    Target("analysis.pipeline", "repro.analysis.pipeline:AnalysisCache.analyses_for"),
    Target(
        "analysis.pipeline", "repro.analysis.pipeline:AnalysisCache.peek_trace_length"
    ),
    Target("analysis.estimate", "repro.analysis.estimate:estimate_speedup"),
    Target("experiments.runner.build_core", "repro.experiments.runner:build_core"),
    Target("polyflow", "repro.polyflow.core:PolyFlowCore.run"),
    Target(
        "polyflow",
        "repro.polyflow.core:PolyFlowCore.run_incremental",
        generator=True,
        finish=_core_finished,
    ),
    Target("polyflow", "repro.polyflow.core:PolyFlowCore.prewarm"),
    Target("polyflow", "repro.polyflow.core:PolyFlowCore.install_warm_state"),
    Target("sim.gridbatch", "repro.sim.gridbatch:run_batch", after=_gridbatch_cells),
    Target("experiments.scheduler", "repro.experiments.scheduler:plan_grid", after=_chunks),
    Target("experiments.scheduler", "repro.experiments.scheduler:job_cost"),
    Target("experiments.scheduler", "repro.experiments.scheduler:unpack_stats"),
    Target(
        "experiments.parallel.dispatch",
        "repro.experiments.parallel:ParallelExperimentRunner.prefetch",
    ),
    Target(
        "experiments.parallel.cache_load",
        "repro.experiments.parallel:ResultCache.load",
        after=_bytes_read,
    ),
    Target(
        "experiments.parallel.cache_store",
        "repro.experiments.parallel:ResultCache.store",
        after=_bytes_written,
    ),
    Target("service.admission", "repro.service.admission:AdmissionController.next_batch"),
    Target(
        "service.engine",
        "repro.service.engine:ExplorationEngine.execute_batch",
        before=_batch_started,
        after=_batch_done,
    ),
    Target("service.wire", "repro.service.wire:encode_stats"),
    Target("service.wire", "repro.service.wire:canonical_json"),
    Target("service.wire", "repro.service.wire:decode_query"),
    Target("experiments.figures", "repro.experiments.figures:figure_jobs_union"),
    Target("experiments.figures", "repro.experiments.figures:figure5"),
    Target("experiments.figures", "repro.experiments.figures:figure8"),
    Target("experiments.figures", "repro.experiments.figures:figure9"),
    Target("experiments.figures", "repro.experiments.figures:figure10"),
    Target("experiments.figures", "repro.experiments.figures:figure11"),
    Target("experiments.figures", "repro.experiments.figures:figure12"),
    Target("experiments.figures", "repro.experiments.figures:headline_ratios"),
    Target("experiments.figures", "repro.experiments.figures:SpeedupResult.render"),
    Target(
        "experiments.figures",
        "repro.experiments.figures:StaticDistributionResult.render",
    ),
    Target("experiments.figures", "repro.experiments.figures:LossResult.render"),
)

#: The HTTP handler and admission entry, wrapped to time each query's
#: stay in the server (not layers: they produce ``service.server``).
_HANDLER = "repro.service.server:ExplorationService._handle_connection"
_SUBMIT = "repro.service.admission:AdmissionController.submit"

#: Layers in report order.
LAYERS = tuple(dict.fromkeys(target.layer for target in TARGETS)) + ("service.server",)

#: The queries submitted by the connection handler running in this context.
_SUBMITTED = contextvars.ContextVar("submitted_queries", default=None)


def _resolve(target):
    """``(owner, attribute, original)`` for ``target``, importing its module."""
    module = importlib.import_module(target.module)
    owner = module
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    namespace = vars(owner)
    if attribute not in namespace:
        raise LookupError(
            "traced target {}:{} no longer exists; update the layer table "
            "in benchmarks/e2e/tracer.py".format(target.module, target.qualname)
        )
    return owner, attribute, namespace[attribute]


def _disable_in_child(reference):
    tracer = reference()
    if tracer is not None:
        tracer.enabled = False


class Tracer:
    """Records layer spans for one benchmark pass (see the module docs)."""

    def __init__(self, workload="", clock=time.perf_counter_ns):
        self.workload = workload
        #: Nanosecond clock (tests substitute a fake one).
        self.clock = clock
        self.enabled = False
        self.pid = os.getpid()
        self.spans = []
        self.lock = threading.Lock()
        self.counters = collections.Counter()
        self.admission_waits = []
        #: ``{id(query): [admission wait s, batch s]}`` for queries in flight.
        self.query_timings = {}
        #: ``[(start_ns, end_ns, overhead_s)]`` per answered query.
        self.query_spans = []
        self.engine = None
        self.engine_before = (0, 0)
        self.region_start = self.region_end = None
        self.root_thread = None
        self.thread_names = {}
        self._local = threading.local()
        self._patches = []
        self._snapshot = {}
        os.register_at_fork(
            after_in_child=functools.partial(_disable_in_child, weakref.ref(self))
        )

    # -- installation -------------------------------------------------------------

    def install(self, targets=TARGETS, service=True):
        """Wrap every target (and its ``from``-import aliases).

        Raises :class:`LookupError` before patching anything when a target
        is missing.  ``service`` also wraps the HTTP handler that times
        each query's stay in the server.
        """
        resolved = []
        for target in targets:
            wrap = self._wrap_generator if target.generator else self._wrap_function
            resolved.append((functools.partial(wrap, target),) + _resolve(target))
        if service:
            for path, wrap in ((_HANDLER, self._wrap_handler), (_SUBMIT, self._wrap_submit)):
                resolved.append((wrap,) + _resolve(Target(None, path)))
        for wrap, owner, attribute, original in resolved:
            self._replace(owner, attribute, original, wrap(original))
        return self

    def _replace(self, owner, attribute, original, replacement):
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)
        if isinstance(owner, type):
            return
        # Modules that bound the function with ``from x import f``.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, alias, original))
                    setattr(module, alias, replacement)

    def uninstall(self):
        """Restore every patched binding."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- wrappers -----------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self.thread_names[threading.get_ident()] = threading.current_thread().name
        return stack

    def _enter(self, target):
        stack = self._stack()
        parent = stack[-1] if stack else None
        # [target, start_ns, end_ns, parent span, thread, child_ns]
        span = [target, self.clock(), 0, parent, threading.get_ident(), 0]
        stack.append(span)
        self.spans.append(span)
        return span

    def _exit(self, span):
        end = self.clock()
        span[2] = end
        self._local.stack.pop()
        parent = span[3]
        if parent is not None:
            parent[5] += end - span[1]

    def _wrap_function(self, target, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if target.before is not None:
                target.before(tracer, args)
            span = tracer._enter(target)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(span)
            if target.after is not None:
                target.after(tracer, span, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, target, original):
        """A generator wrapper: each ``next()`` is one span."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            try:
                while True:
                    span = tracer._enter(target) if tracer.enabled else None
                    try:
                        value = next(inner)
                        finished = False
                    except StopIteration:
                        finished = True
                    finally:
                        if span is not None:
                            tracer._exit(span)
                    if finished:
                        if span is not None and target.finish is not None:
                            target.finish(tracer, args)
                        return
                    yield value
            finally:
                inner.close()

        return traced

    def _wrap_submit(self, original):
        @functools.wraps(original)
        def traced(controller, query):
            submitted = _SUBMITTED.get()
            if submitted is not None:
                submitted.append(query)
            return original(controller, query)

        return traced

    def _wrap_handler(self, original):
        """Time one connection: handler wall minus admission wait and
        batch time is the server's own overhead for that query."""
        tracer = self

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            if not tracer.enabled:
                return await original(*args, **kwargs)
            submitted = []
            token = _SUBMITTED.set(submitted)
            start = tracer.clock()
            try:
                return await original(*args, **kwargs)
            finally:
                end = tracer.clock()
                _SUBMITTED.reset(token)
                for query in submitted:
                    with tracer.lock:
                        timing = tracer.query_timings.pop(id(query), None)
                    if timing is not None:
                        overhead = (end - start) / 1e9 - timing[0] - timing[1]
                        tracer.query_spans.append((start, end, overhead))

        return traced

    # -- regions and counters -----------------------------------------------------

    def count(self, name, amount):
        with self.lock:
            self.counters[name] += amount

    def _counter_snapshot(self):
        from repro.analysis.pipeline import shared_cache
        from repro.sim.blocks import cache_counters

        blocks = cache_counters()
        cache = shared_cache()
        return {
            "compiles": blocks["table_misses"] + blocks["program_misses"],
            "disk_hits": cache.disk_hits,
            "misses": cache.misses,
        }

    def begin_region(self, root_thread_name=None):
        """Start recording.  Unattributed time is measured on the thread
        named ``root_thread_name`` (default: the calling thread)."""
        self.root_thread = threading.get_ident()
        if root_thread_name is not None:
            for thread in threading.enumerate():
                if thread.name == root_thread_name:
                    self.root_thread = thread.ident
        self._snapshot = self._counter_snapshot()
        self.region_start = self.clock()
        self.enabled = True

    def end_region(self):
        """Stop recording and book the region's counter movement."""
        self.enabled = False
        self.region_end = self.clock()
        after = self._counter_snapshot()
        for key, name in (
            ("compiles", "sim.blocks.compiles"),
            ("disk_hits", "analysis.pipeline.disk_hits"),
            ("misses", "analysis.pipeline.misses"),
        ):
            self.counters[name] += after[key] - self._snapshot.get(key, 0)

    # -- results ------------------------------------------------------------------

    def _closed(self, span):
        """``(start, end)`` of ``span``; a span still open when the region
        ended is cut off there."""
        return span[1], span[2] or self.region_end

    def self_times(self):
        """``({layer: self_ns}, {layer: calls})`` over the region."""
        self_ns = collections.Counter()
        calls = collections.Counter()
        for span in self.spans:
            start, end = self._closed(span)
            self_ns[span[0].layer] += end - start - span[5]
            calls[span[0].layer] += 1
        return self_ns, calls

    def unattributed_share(self):
        """Share of the region on the root thread outside every layer span."""
        region = self.region_end - self.region_start
        covered = 0
        for span in self.spans:
            if span[3] is None and span[4] == self.root_thread:
                start, end = self._closed(span)
                covered += min(end, self.region_end) - max(start, self.region_start)
        return (region - covered) / region if region > 0 else 0.0

    def fired(self):
        """``{module:qualname}`` of every target that recorded a span."""
        return sorted({"{}:{}".format(s[0].module, s[0].qualname) for s in self.spans})

    def layer_metrics(self):
        """Every per-layer metric of the region, by name."""
        self_ns, calls = self.self_times()
        metrics = {}
        for layer in LAYERS:
            if layer not in WAIT_LAYERS:
                metrics[layer + ".self_s"] = self_ns[layer] / 1e9
                metrics[layer + ".calls"] = calls[layer]
        counters = self.counters
        metrics["sim.functional.instructions"] = counters["sim.functional.instructions"]
        metrics["sim.blocks.compiles"] = counters["sim.blocks.compiles"]
        hits = counters["analysis.pipeline.disk_hits"]
        misses = counters["analysis.pipeline.misses"]
        metrics["analysis.pipeline.disk_hits"] = hits
        metrics["analysis.pipeline.misses"] = misses
        metrics["analysis.pipeline.disk_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        retired = counters["polyflow.retired"]
        metrics["polyflow.retired"] = retired
        metrics["polyflow.cycles"] = counters["polyflow.cycles"]
        kernel_s = self_ns["polyflow"] / 1e9
        metrics["polyflow.ips"] = retired / kernel_s if kernel_s else 0.0
        metrics["sim.gridbatch.cells"] = counters["sim.gridbatch.cells"]
        metrics["experiments.scheduler.chunks"] = counters["experiments.scheduler.chunks"]
        metrics["experiments.parallel.cache_load.bytes_read"] = counters[
            "experiments.parallel.cache_load.bytes_read"
        ]
        metrics["experiments.parallel.cache_store.bytes_written"] = counters[
            "experiments.parallel.cache_store.bytes_written"
        ]
        waits = self.admission_waits
        batches = counters["service.admission.batches"]
        metrics["service.admission.wait_p50_ms"] = (
            percentile(waits, 50) * 1000 if waits else 0.0
        )
        metrics["service.admission.batches"] = batches
        metrics["service.admission.mean_batch_queries"] = (
            counters["service.admission.batch_queries"] / batches if batches else 0.0
        )
        deduped = served = 0
        if self.engine is not None:
            deduped = self.engine.cells_deduped - self.engine_before[0]
            served = self.engine.cells_served - self.engine_before[1]
        metrics["service.engine.dedup_ratio"] = deduped / served if served else 0.0
        overheads = [overhead for _, _, overhead in self.query_spans]
        metrics["service.server.overhead_p50_ms"] = (
            percentile(overheads, 50) * 1000 if overheads else 0.0
        )
        metrics["unattributed_share"] = self.unattributed_share()
        return metrics

    def chrome_trace(self):
        """The region's spans as a Chrome trace-event document."""
        origin = self.region_start
        index = {id(span): number for number, span in enumerate(self.spans)}
        threads = {}
        events = []
        for number, span in enumerate(self.spans):
            start, end = self._closed(span)
            tid = threads.setdefault(span[4], len(threads) + 1)
            events.append(
                {
                    "name": span[0].qualname,
                    "cat": span[0].layer,
                    "ph": "X",
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": self.pid,
                    "tid": tid,
                    "args": {
                        "workload": self.workload,
                        "span": number,
                        "parent": index.get(id(span[3])),
                    },
                }
            )
        for number, (start, end, overhead) in enumerate(self.query_spans):
            for phase, stamp in (("b", start), ("e", end)):
                events.append(
                    {
                        "name": "query",
                        "cat": "service.server",
                        "ph": phase,
                        "id": number,
                        "ts": (stamp - origin) / 1000.0,
                        "pid": self.pid,
                        "tid": 0,
                        "args": {"overhead_ms": overhead * 1000},
                    }
                )
        for ident, tid in threads.items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": self.pid,
                    "tid": tid,
                    "args": {"name": self.thread_names.get(ident, str(ident))},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
