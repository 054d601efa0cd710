"""The simulation event bus: guarded dispatch to attached sinks.

A sink is any object with an ``on_event(event)`` method.  Sinks attach
either *verbose* (the default — they also receive the high-frequency
per-instruction events) or non-verbose (lifecycle events only, the mode
:class:`~repro.polyflow.stats.SimStats` uses).

The core reads ``bus.verbose`` once per run, and it is the one input
that selects the timing engine: verbose emission timestamps every
per-instruction event with the cycle it happened in, so a verbose bus
runs the staged engine (every cycle visited), and every other run takes
the event-calendar kernel (:mod:`repro.polyflow.event_kernel`), which
jumps the clock over frozen cycles.  Attaching a verbose sink is the request for per-instruction
events; sinks that fold lifecycle events (statistics, metrics, lifecycle
traces) attach non-verbose and keep the kernel.  Lifecycle events carry
cycle timestamps too, and the engine-equivalence suites pin them
byte-identical across engines — the flag only decides *which*
cycle-exact-equivalent engine runs, never what any sink observes.
"""

#: Version of the event schema (bump on any field or kind change, and
#: regenerate the golden traces under ``tests/obs/golden/``).
EVENT_SCHEMA_VERSION = 1


class EventBus:
    """Dispatches simulation events to attached sinks, in attach order."""

    __slots__ = ("_sinks", "verbose")

    def __init__(self):
        self._sinks = []
        #: True when at least one verbose sink is attached.  The core
        #: runs the staged engine, which emits the per-instruction
        #: events, exactly when this is set (see the module docstring).
        self.verbose = False

    def attach(self, sink, verbose=True):
        """Attach ``sink``; returns it for chaining.

        Args:
            sink: Object with an ``on_event(event)`` method.
            verbose: Whether the sink wants the per-instruction events
                (fetch, commit, hint lookups, spawn requested/rejected)
                in addition to the always-on lifecycle events.
        """
        self._sinks.append(sink)
        if verbose:
            self.verbose = True
        return sink

    @property
    def sinks(self):
        """The attached sinks (read-only view)."""
        return tuple(self._sinks)

    def emit(self, event):
        """Deliver ``event`` to every sink, in attach order."""
        for sink in self._sinks:
            sink.on_event(event)
