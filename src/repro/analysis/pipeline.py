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

A disk entry is two files, each sealed by :mod:`repro.sealed` (the
result cache's format: a sha256-verified header line, then the body).
The *static* part, ``<digest>.pkl``, holds the program, jump profile,
CFGs, spawn analysis and the committed-trace length; the *trace* part,
``<digest>.trace``, holds the trace with its memoized decode and block
table, which is most of the bytes.  A disk hit reads only the static
part, so static results (Figure 5's spawn-point counts, the
scheduler's cost estimates) never unpickle a trace; the trace part is
read the first time something touches :attr:`ProgramAnalyses.trace`.

The memo is frozen.  Entries are never evicted while a sweep runs, and
a catalog sweep memoizes hundreds of programs, traces and block tables:
hundreds of thousands of container objects that every full collection
of Python's cyclic GC would rescan without ever freeing one.  Each time
the cache memoizes an entry or attaches a trace part it calls
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
import io
import os
import pickle
import struct

from repro import sealed

#: Bump to invalidate persisted analysis entries (e.g. when an analysis
#: gains fields or changes meaning in ways the digest cannot see).
#: v2: analyses now carry the trace's compiled block table (see
#: :mod:`repro.sim.blocks`), so warm workers inherit it from disk.
#: v3: an entry is a static part plus a trace part read on demand.
#: v4: the two parts are two sealed files (see :mod:`repro.sealed`).
ANALYSIS_FORMAT_VERSION = 4

#: First field of both parts' header lines.
_MAGIC = b"Vpolyflow-analysis"


@functools.lru_cache(maxsize=512)
def source_digest(source):
    """Content key of one program: SHA-256 of its assembly source.

    Memoized: the workload suite and the grid scheduler look the same
    handful of sources up thousands of times per run, and the assembled
    :class:`~repro.isa.program.Program` carries the same digest (see
    :meth:`~repro.isa.program.Program.content_digest`), so each source
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
    ``load_trace(analyses)`` supplies it on first access of
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
        """The committed-path :class:`~repro.sim.trace.Trace` (loaded on
        first use when these analyses came from disk)."""
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


def _compile_blocks(trace, program):
    """Compile the block tables before persisting: they memoize
    themselves onto the trace/program, so the entry carries them and
    warm workers load pre-compiled blocks instead of re-segmenting."""
    from repro.sim.blocks import block_table_for, program_blocks_for

    block_table_for(trace)
    program_blocks_for(program)


# -- the trace part ---------------------------------------------------------------
#
# Trace records point at the program's Instruction objects, which hash
# by identity, so a loaded trace must reference the *loaded* program's
# instructions.  The trace part is pickled with the pickler's memo
# pre-seeded with the program's instructions at slots 0..n-1, so every
# record refers to its instruction by memo slot.  A primer written in
# front of the pickle fills those slots on load: ``n`` persistent ids the
# loader resolves against the program already in memory.  (Assigning a
# dict to ``Unpickler.memo`` leaves the C unpickler's memo empty, so the
# slots must be filled by unpickling.)  Nothing is called per record on
# either side, so this costs no more than one plain pickle.

_PRIMER_STEP = struct.Struct("<i")


def _instruction_primer(count):
    """Pickle opcodes putting persistent id ``i`` into memo slot ``i``."""
    load_one = pickle.BINPERSID + pickle.MEMOIZE + pickle.POP
    steps = b"".join(
        pickle.BININT + _PRIMER_STEP.pack(index) + load_one for index in range(count)
    )
    return pickle.PROTO + b"\x04" + steps + pickle.NONE + pickle.STOP


def _dump_trace_part(digest, trace, instructions):
    buffer = io.BytesIO()
    buffer.write(_instruction_primer(len(instructions)))
    pickler = pickle.Pickler(buffer)
    pickler.memo = {id(inst): (index, inst) for index, inst in enumerate(instructions)}
    pickler.dump({"digest": digest, "trace_length": len(trace), "trace": trace})
    return buffer.getbuffer()


class _TraceUnpickler(pickle.Unpickler):
    """Resolves the primer's persistent ids to the loaded instructions."""

    def __init__(self, stream, instructions):
        super().__init__(stream)
        self._instructions = instructions

    def persistent_load(self, pid):
        return self._instructions[pid]


class AnalysisCache:
    """Content-keyed store of :class:`ProgramAnalyses`.

    Two layers: a process-local dict (hit returns the *same* object, so
    trace predecode and spawn-profile memos are shared by every
    simulation of the program), and an optional directory of sealed
    files shared between processes.  A hit reads the static part only
    and the trace part on first use (see the module docs).  Each part
    is written atomically, the trace part first: a static part whose
    trace part never landed takes the damaged-trace path below.

    ``misses`` counts pipeline runs.  Lookups tell a *clean* miss (no
    static part on disk) from a *corrupt* one (present but failing its
    envelope check or unpickle, or keyed to another program), which is
    also counted in ``corrupt``; either way the pipeline runs and the
    entry is rewritten.  A trace part that is missing, fails its
    envelope check or does not match its static part is never served:
    the trace is recomputed by re-running the loaded program (the trace
    is a pure function of it, and re-running keeps every record's
    instruction the program's own), counted in ``corrupt``, and the
    entry rewritten.  ``trace_loads`` counts trace parts read.
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
            _compile_blocks(analyses.trace, analyses.program)
            if self.disk_root is not None:
                self._disk_store(self._path(digest), analyses, analyses.trace)
        else:
            self.disk_hits += 1
        self._memoize(digest, analyses)
        return analyses

    def peek_trace_length(self, source):
        """Committed-trace length if already cached, else None.

        Consults the memory and disk layers only — a miss returns None
        instead of running the pipeline, and a disk hit reads the
        static part, not the trace.  The grid scheduler's cost model
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

    def _path(self, digest):
        """Path of ``digest``'s entry without its part suffix."""
        return os.path.join(self.disk_root, digest[:2], digest)

    def _disk_load(self, digest):
        """The static part of ``digest``'s entry as trace-less analyses,
        or None on a clean or corrupt miss."""
        if self.disk_root is None:
            return None
        path = self._path(digest)
        try:
            with open(path + ".pkl", "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
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
            load_trace=functools.partial(self._load_trace, path),
        )

    def _load_trace(self, path, analyses):
        """The trace of disk-loaded ``analyses`` (see the class docs)."""
        try:
            with open(path + ".trace", "rb") as handle:
                data = sealed.unseal(handle.read(), _MAGIC, ANALYSIS_FORMAT_VERSION)
            unpickler = _TraceUnpickler(io.BytesIO(data), analyses.program.instructions)
            unpickler.load()
            entry = unpickler.load()
            trace = entry["trace"]
            if entry["digest"] != analyses.digest or len(trace) != analyses.trace_length:
                raise ValueError("trace part does not match its static part")
        except Exception:
            self.corrupt += 1
            from repro.sim import run_program

            trace = run_program(analyses.program)
            analyses.trace_length = len(trace)
            _compile_blocks(trace, analyses.program)
            self._disk_store(path, analyses, trace)
        else:
            self.trace_loads += 1
        gc.freeze()  # see the module docs
        return trace

    def _disk_store(self, path, analyses, trace):
        """Write both parts of an entry, the trace part first.  Best
        effort: an unwritable analysis directory never fails a run."""
        program = analyses.program
        static = {
            "digest": analyses.digest,
            "trace_length": len(trace),
            "analyses": (
                program,
                analyses.jump_profile,
                analyses.cfgs,
                analyses.spawn_analysis,
            ),
        }
        part = _dump_trace_part(analyses.digest, trace, program.instructions)
        try:
            for suffix, body in ((".trace", part), (".pkl", pickle.dumps(static))):
                data = sealed.seal(body, _MAGIC, ANALYSIS_FORMAT_VERSION)
                sealed.write(path + suffix, data)
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
