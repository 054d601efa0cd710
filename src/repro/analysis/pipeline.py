"""Memoized per-program analysis pipeline.

Every timing simulation of a workload needs the same expensive static
and dynamic analyses first: assemble the source, execute it
architecturally, profile indirect jumps, build the CFGs, compute
dominance/postdominance and loops, and classify spawn points.  The
experiment grid runs each workload under ~15 policy specs and several
machine configurations, so recomputing that pipeline per job dominated
setup time.

:class:`AnalysisCache` computes the pipeline exactly once per *program
text*: entries are keyed by the SHA-256 of the assembly source, so two
call sites that build the same program (e.g. the same workload at the
same scale, or two scales that happen to emit identical source) share
one :class:`ProgramAnalyses`.  The cache is process-local; an optional
on-disk layer (enabled by the parallel runner under its existing cache
directory) lets freshly started worker processes skip the pipeline for
programs any earlier run already analysed.

A disk entry is one file, ``<digest>.pkl``, sealed by :mod:`repro.sealed`
(the result cache's format: a sha256-verified header line, then the
body).  It holds the *static* part: the program, jump profile, CFGs,
spawn analysis and the committed-trace length.  The trace is not
persisted.  It is a pure function of the program, and re-running the
loaded program rebuilds it no slower than a trace part could be read
back, so a disk hit re-runs the program the first time something
touches :attr:`ProgramAnalyses.trace`.  Static results (Figure 5's
spawn-point counts, the scheduler's cost estimates) never run it.  No
block table is compiled here either: the first core that runs a trace
compiles it through :func:`repro.sim.blocks.block_table_for`, so a
program that is only estimated never pays for one.

The memo is frozen.  Entries are never evicted while a sweep runs, and
a catalog sweep memoizes hundreds of programs, traces and analyses:
hundreds of thousands of container objects that every full
collection of Python's cyclic GC would rescan without ever freeing one.
Each time the cache memoizes an entry or rebuilds a trace it calls
:func:`gc.freeze`, moving everything alive into the permanent
generation, so later collections scan only objects created since.  No
collection runs first: the few garbage cycles frozen along the way
cost less than collecting before every freeze would.  :meth:`clear`
unfreezes, so the entries it drops can be collected.

The pipeline's repro-internal imports are deferred into the compute
path: :mod:`repro.spawn` and :mod:`repro.cfg` themselves import
:mod:`repro.analysis`, and this module is re-exported from the package
``__init__``.
"""

import functools
import gc
import hashlib
import os
import pickle

from repro import sealed

#: Bump to invalidate persisted analysis entries (e.g. when an analysis
#: gains fields or changes meaning in ways the digest cannot see).
#: v2: analyses now carry the trace's compiled block table (see
#: :mod:`repro.sim.blocks`), so warm workers inherit it from disk.
#: v3: an entry is a static part plus a trace part read on demand.
#: v4: the two parts are two sealed files (see :mod:`repro.sealed`);
#: only the static part is still written, and read.  v5: the pickled
#: program no longer carries the interpreter's decode or blocks.  v6:
#: the program's data is byte segments, and an instruction pickles
#: its constructor operands only.  v7: an instruction no longer keeps
#: its source line.
ANALYSIS_FORMAT_VERSION = 7

#: First field of an entry's header line.
_MAGIC = b"Vpolyflow-analysis"


@functools.lru_cache(maxsize=512)
def source_digest(source):
    """Content key of one program: SHA-256 of its assembly source.

    Memoized: the workload suite and the grid scheduler look the same
    handful of sources up thousands of times per run, so each source
    is hashed once per process.
    """
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class ProgramAnalyses:
    """Everything derived from one program's source, computed once.

    Carries the assembled program, its committed-path trace, the
    trace-derived jump profile, the profile-driven CFGs (with dominator
    and postdominator trees and loop forests computed inside), and the
    :class:`~repro.spawn.policies.SpawnAnalysis` holding the classified
    spawn points.  Spawn profiles are memoized per profiling distance.

    Analyses loaded from the disk layer start without their trace:
    ``load_trace(analyses)`` rebuilds it on first access of
    :attr:`trace`, and ``trace_length`` is known without it.

    The large members (``program``, ``trace``, ``cfgs``,
    ``spawn_analysis``) are shared, not copied — callers must treat
    them as immutable.  The point accessors return fresh lists, so
    mutating *those* cannot poison the cache.
    """

    __slots__ = (
        "digest",
        "program",
        "jump_profile",
        "cfgs",
        "spawn_analysis",
        "trace_length",
        "_trace",
        "_load_trace",
        "_profiles",
    )

    def __init__(
        self,
        digest,
        program,
        trace,
        jump_profile,
        cfgs,
        spawn_analysis,
        trace_length=None,
        load_trace=None,
    ):
        self.digest = digest
        self.program = program
        self.jump_profile = jump_profile
        self.cfgs = cfgs
        self.spawn_analysis = spawn_analysis
        #: Committed instructions in the trace (the scheduler's cost unit).
        self.trace_length = len(trace) if trace is not None else trace_length
        self._trace = trace
        self._load_trace = load_trace
        self._profiles = {}

    @property
    def trace(self):
        """The committed-path :class:`~repro.sim.trace.Trace` (rebuilt
        on first use when these analyses came from disk)."""
        if self._trace is None:
            self._trace = self._load_trace(self)
        return self._trace

    def postdominator_points(self):
        """Fresh list of the control-equivalent (ipdom) spawn points."""
        return list(self.spawn_analysis.postdominator_points)

    def loop_points(self):
        """Fresh list of the heuristic loop-iteration spawn points."""
        return list(self.spawn_analysis.loop_points)

    def spawn_profile(self, max_spawn_distance):
        """The spawn profile at one profiling distance (memoized).

        Profiles the union of postdominator and loop spawn points, so
        every policy's hint table can be derived from the result.
        """
        profile = self._profiles.get(max_spawn_distance)
        if profile is None:
            from repro.spawn import profile_spawn_points

            points = self.postdominator_points() + self.loop_points()
            profile = profile_spawn_points(self.trace, points, max_spawn_distance)
            self._profiles[max_spawn_distance] = profile
        return profile

    def __repr__(self):
        return "ProgramAnalyses(digest={}, dynamic={}, procedures={})".format(
            self.digest[:12], self.trace_length, len(self.cfgs)
        )


def compute_analyses(source, digest=None):
    """Run the full analysis pipeline on ``source``, bypassing caches.

    The imports live here (not at module scope) because the pipeline's
    inputs — :mod:`repro.cfg`, :mod:`repro.spawn` — themselves import
    :mod:`repro.analysis`.
    """
    from repro.cfg import JumpProfile, build_program_cfgs
    from repro.isa import assemble
    from repro.sim import run_program
    from repro.spawn import SpawnAnalysis

    if digest is None:
        digest = source_digest(source)
    program = assemble(source)
    trace = run_program(program)
    jump_profile = JumpProfile.from_trace(trace)
    cfgs = build_program_cfgs(program, jump_profile=jump_profile)
    spawn_analysis = SpawnAnalysis(cfgs)
    return ProgramAnalyses(digest, program, trace, jump_profile, cfgs, spawn_analysis)


class AnalysisCache:
    """Content-keyed store of :class:`ProgramAnalyses`.

    Two layers: a process-local dict (hit returns the *same* object, so
    trace predecode and spawn-profile memos are shared by every
    simulation of the program), and an optional directory of sealed
    static parts shared between processes.  A disk hit re-runs the
    loaded program for its trace on first use (see the module docs);
    re-running keeps every record's instruction the program's own.

    ``misses`` counts pipeline runs.  Lookups tell a *clean* miss (no
    readable static part on disk) from a *corrupt* one (present but failing its
    envelope check or unpickle, or keyed to another program), which is
    also counted in ``corrupt``; either way the pipeline runs and the
    entry is rewritten.  A rebuilt trace whose length differs from the
    static part's ``trace_length`` is counted in ``corrupt`` too: the
    length is corrected and the entry rewritten, never served as read.
    ``trace_loads`` counts traces rebuilt for disk-loaded analyses.
    """

    def __init__(self, disk_root=None):
        self.disk_root = disk_root
        self._memory = {}
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.corrupt = 0
        self.trace_loads = 0

    def analyses_for(self, source):
        """The :class:`ProgramAnalyses` of ``source`` (computing at most
        once per process, and at most once per disk root)."""
        digest = source_digest(source)
        analyses = self._memory.get(digest)
        if analyses is not None:
            self.hits += 1
            return analyses
        analyses = self._disk_load(digest)
        if analyses is None:
            self.misses += 1
            analyses = compute_analyses(source, digest)
            self._disk_store(analyses)
        else:
            self.disk_hits += 1
        self._memoize(digest, analyses)
        return analyses

    def peek_trace_length(self, source):
        """Committed-trace length if already cached, else None.

        Consults the memory and disk layers only — a miss returns None
        instead of running the pipeline, and a disk hit reads the
        static part and runs nothing.  The grid scheduler's cost model
        peeks first and falls back to the closed-form estimator
        (:func:`repro.analysis.estimate.estimated_trace_length`) on a
        miss, so costing a cold synthesized grid no longer prepares
        every cell in the parent.
        """
        digest = source_digest(source)
        analyses = self._memory.get(digest)
        if analyses is not None:
            self.hits += 1
            return analyses.trace_length
        analyses = self._disk_load(digest)
        if analyses is None:
            return None
        self.disk_hits += 1
        self._memoize(digest, analyses)
        return analyses.trace_length

    def clear(self):
        """Drop the in-memory layer (disk entries are left in place)."""
        self._memory.clear()
        gc.unfreeze()

    def _memoize(self, digest, analyses):
        self._memory[digest] = analyses
        gc.freeze()  # see the module docs

    def __len__(self):
        return len(self._memory)

    # -- disk layer ---------------------------------------------------------------

    def gc(self):
        """Prune what no lookup can serve from the disk layer (see
        :func:`repro.sealed.sweep`): every static part failing its
        envelope check, stale temporary files, and every ``.trace``
        file (format v4's trace parts, no longer read), reported as
        ``removed_stale``."""
        return sealed.sweep(
            self.disk_root, _MAGIC, ANALYSIS_FORMAT_VERSION, stale_suffixes=(".trace",)
        )

    def _path(self, digest):
        """Path of ``digest``'s static part."""
        return os.path.join(self.disk_root, digest[:2], digest + ".pkl")

    def _disk_load(self, digest):
        """The static part of ``digest``'s entry as trace-less analyses,
        or None on a clean or corrupt miss."""
        if self.disk_root is None:
            return None
        try:
            with open(self._path(digest), "rb") as handle:
                data = handle.read()
        except OSError:  # absent, or not a readable file
            return None
        try:
            entry = pickle.loads(sealed.unseal(data, _MAGIC, ANALYSIS_FORMAT_VERSION))
            if entry["digest"] != digest:
                raise ValueError("analysis entry of another program")
            program, jump_profile, cfgs, spawn_analysis = entry["analyses"]
            trace_length = entry["trace_length"]
        except Exception:
            self.corrupt += 1
            return None
        return ProgramAnalyses(
            digest,
            program,
            None,
            jump_profile,
            cfgs,
            spawn_analysis,
            trace_length=trace_length,
            load_trace=self._load_trace,
        )

    def _load_trace(self, analyses):
        """The trace of disk-loaded ``analyses``, rebuilt by re-running
        their program (see the class docs)."""
        from repro.sim import run_program

        trace = run_program(analyses.program)
        self.trace_loads += 1
        if len(trace) != analyses.trace_length:
            self.corrupt += 1
            analyses.trace_length = len(trace)
            self._disk_store(analyses)
        gc.freeze()  # see the module docs
        return trace

    def _disk_store(self, analyses):
        """Write the static part of ``analyses``, if there is a disk
        layer.  Best effort: an unwritable analysis directory never
        fails a run."""
        if self.disk_root is None:
            return
        static = {
            "digest": analyses.digest,
            "trace_length": analyses.trace_length,
            "analyses": (
                analyses.program,
                analyses.jump_profile,
                analyses.cfgs,
                analyses.spawn_analysis,
            ),
        }
        data = sealed.seal(pickle.dumps(static), _MAGIC, ANALYSIS_FORMAT_VERSION)
        try:
            sealed.write(self._path(analyses.digest), data)
        except OSError:
            pass


#: The process-wide shared cache every workload preparation goes through.
_SHARED_CACHE = AnalysisCache()


def shared_cache():
    """The process-wide :class:`AnalysisCache`."""
    return _SHARED_CACHE


def analyses_for_source(source):
    """Analyses of ``source`` via the shared cache."""
    return _SHARED_CACHE.analyses_for(source)


def configure_disk_cache(disk_root):
    """Point the shared cache's disk layer at ``disk_root`` (or disable
    it with ``None``).  Used by the parallel runner's worker
    initializer so fresh processes reuse earlier runs' analyses."""
    _SHARED_CACHE.disk_root = disk_root


def clear_shared_cache():
    """Drop the shared cache's in-memory entries (mainly for tests)."""
    _SHARED_CACHE.clear()
