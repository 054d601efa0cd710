"""The synthetic benchmark suite: the 12 programs of the paper's bars.

The paper evaluates SPEC2000int (minus eon, whose C++ did not compile
with their tool chain) with Minnesota Reduced inputs.  Each entry here
is a synthetic stand-in built to exhibit the control-flow character the
paper attributes to the corresponding benchmark; see DESIGN.md
section 5 for the per-benchmark shape targets.
"""

from repro.analysis.pipeline import analyses_for_source, compute_analyses
from repro.errors import ConfigurationError
from repro.workloads import (
    bzip2,
    crafty,
    gap,
    gcc,
    gzip,
    mcf,
    parser,
    perlbmk,
    twolf,
    vortex,
    vpr,
)

#: Benchmark order used throughout the paper's figures.
WORKLOAD_NAMES = (
    "bzip2",
    "crafty",
    "gap",
    "gcc",
    "gzip",
    "mcf",
    "parser",
    "perlbmk",
    "twolf",
    "vortex",
    "vpr.place",
    "vpr.route",
)

_BUILDERS = {
    "bzip2": bzip2.build,
    "crafty": crafty.build,
    "gap": gap.build,
    "gcc": gcc.build,
    "gzip": gzip.build,
    "mcf": mcf.build,
    "parser": parser.build,
    "perlbmk": perlbmk.build,
    "twolf": twolf.build,
    "vortex": vortex.build,
    "vpr.place": vpr.build_place,
    "vpr.route": vpr.build_route,
}


class PreparedWorkload:
    """A fully prepared workload: program, trace, CFGs, spawn analysis.

    A thin named view over one
    :class:`~repro.analysis.pipeline.ProgramAnalyses` — the analyses
    themselves are shared through the content-keyed analysis cache, so
    every policy and every machine configuration simulating the same
    program reuses one trace, one CFG set, and one spawn analysis.
    ``trace`` passes through to the analyses, so analyses loaded from
    the cache's disk layer read their trace only when something uses
    it; static results and ``dynamic_instructions`` never do.
    """

    def __init__(self, name, analyses):
        self.name = name
        self.analyses = analyses
        self.program = analyses.program
        self.cfgs = analyses.cfgs
        self.spawn_analysis = analyses.spawn_analysis

    @property
    def trace(self):
        """The committed trace (loaded on first use, see above)."""
        return self.analyses.trace

    def spawn_profile(self, max_spawn_distance):
        """The workload's spawn profile at one profiling distance
        (memoized on the shared analyses)."""
        return self.analyses.spawn_profile(max_spawn_distance)

    @property
    def dynamic_instructions(self):
        """Committed instructions in the trace."""
        return self.analyses.trace_length

    def __repr__(self):
        return "PreparedWorkload(name={!r}, dynamic={}, procedures={})".format(
            self.name, self.dynamic_instructions, len(self.cfgs)
        )


_PREPARED_CACHE = {}


def workload_source(name, scale=1.0):
    """The assembly source of one workload.

    ``synth/``-prefixed names resolve through the synthesized scenario
    catalog (:mod:`repro.workloads.synth`); everything downstream —
    analysis cache, scheduler cost model, warm worker pool, result
    cache — treats catalog scenarios exactly like the hand-built suite
    because this is the single place names become source text.
    """
    if name.startswith("synth/"):
        from repro.workloads.synth import scenario_source

        return scenario_source(name, scale)
    if name not in _BUILDERS:
        raise ConfigurationError(
            "unknown workload {!r}; choose from {} or a synth/ catalog "
            "name".format(name, WORKLOAD_NAMES)
        )
    return _BUILDERS[name](scale)


def prepare_workload(name, scale=1.0, use_cache=True):
    """Build, execute, and analyse one workload.

    The returned :class:`PreparedWorkload` has the committed trace, the
    profile-driven CFGs (indirect-jump targets resolved from the
    trace), and the :class:`~repro.spawn.policies.SpawnAnalysis` from
    which all policies derive.  The analyses come from the shared
    content-keyed :class:`~repro.analysis.pipeline.AnalysisCache`, so
    they are computed at most once per program text;
    ``use_cache=False`` bypasses both the ``(name, scale)`` memo and
    the analysis cache and recomputes everything from scratch.
    """
    key = (name, scale)
    if use_cache and key in _PREPARED_CACHE:
        return _PREPARED_CACHE[key]
    source = workload_source(name, scale)
    if use_cache:
        analyses = analyses_for_source(source)
    else:
        analyses = compute_analyses(source)
    prepared = PreparedWorkload(name, analyses)
    if use_cache:
        _PREPARED_CACHE[key] = prepared
    return prepared


def workload_trace_length(name, scale=1.0):
    """Committed-trace length of one workload (the scheduler's cost unit).

    Goes through :func:`prepare_workload`, so estimating the cost of a
    pending grid also prepares the program in the parent — which a
    fork-start worker pool then inherits for free.
    """
    return prepare_workload(name, scale).dynamic_instructions


def peek_workload_trace_length(name, scale=1.0):
    """Committed-trace length if already known, else None.

    Checks the ``(name, scale)`` preparation memo and the shared
    analysis cache's memory/disk layers; a miss returns None without
    generating the trace.  Generating the *source* text is cheap (it is
    needed to key the cache) — the expensive pipeline never runs.
    """
    key = (name, scale)
    prepared = _PREPARED_CACHE.get(key)
    if prepared is not None:
        return prepared.dynamic_instructions
    from repro.analysis.pipeline import shared_cache

    return shared_cache().peek_trace_length(workload_source(name, scale))


def clear_cache():
    """Drop all cached prepared workloads and the in-memory layer of
    the shared analysis cache (mainly for tests)."""
    from repro.analysis.pipeline import clear_shared_cache

    _PREPARED_CACHE.clear()
    clear_shared_cache()
