"""Metrics aggregation: roll the event stream into attribution tables.

The aggregator answers the question end-of-run :class:`SimStats` can't:
*which spawn points* produced the spawns, the squashes, and the useful
commits.  Each task's work is attributed to its originating spawn
point (the trigger PC that created it); the initial non-speculative
task is attributed to the pseudo-origin ``"entry"``.

Every counter folds a lifecycle event, so attach it non-verbose
(``bus.attach(MetricsAggregator(), verbose=False)``) and the run keeps
the event kernel: ``committed`` is the sum of the origin's
``task_commit`` lengths, which is exactly the per-instruction commit
count (task segments partition the trace, and each instruction retires
once, under the task that owns it).
"""

_ENTRY = "entry"

#: Keys of the totals dict (and columns of the attribution tables).
TOTAL_KEYS = (
    "spawns",
    "squashes",
    "violations",
    "committed",
    "squashed_instructions",
    "tasks_committed",
    "mean_task_length",
    "useful_commit_ratio",
)


def _origin_key(origin):
    return _ENTRY if origin is None else origin


class _OriginMetrics:
    """Counters attributed to one spawn point (trigger PC)."""

    __slots__ = (
        "spawns",
        "squashes",
        "violations",
        "committed",
        "squashed_instructions",
        "tasks_committed",
        "task_length_sum",
    )

    def __init__(self):
        self.spawns = 0
        self.squashes = 0
        self.violations = 0
        self.committed = 0
        self.squashed_instructions = 0
        self.tasks_committed = 0
        self.task_length_sum = 0

    def as_dict(self):
        return {
            "spawns": self.spawns,
            "squashes": self.squashes,
            "violations": self.violations,
            "committed": self.committed,
            "squashed_instructions": self.squashed_instructions,
            "tasks_committed": self.tasks_committed,
            "task_length_sum": self.task_length_sum,
        }


def _derive(totals):
    """Add the derived ratios to a raw totals dict (in place)."""
    tasks = totals.get("tasks_committed", 0)
    totals["mean_task_length"] = (
        totals.get("task_length_sum", 0) / tasks if tasks else 0.0
    )
    work = totals.get("committed", 0) + totals.get("squashed_instructions", 0)
    totals["useful_commit_ratio"] = totals.get("committed", 0) / work if work else 1.0
    return totals


class MetricsAggregator:
    """A bus sink accumulating per-spawn-point attribution counters."""

    def __init__(self):
        self._by_origin = {}

    def _bucket(self, origin):
        key = _origin_key(origin)
        bucket = self._by_origin.get(key)
        if bucket is None:
            bucket = self._by_origin[key] = _OriginMetrics()
        return bucket

    def on_event(self, event):
        kind = event.kind
        if kind == "spawn_accepted":
            # Attributed to the *deciding* trigger (event.pc), which is
            # the origin all of the new task's later events will carry.
            self._bucket(event.pc).spawns += 1
        elif kind == "squash":
            bucket = self._bucket(event.origin)
            bucket.squashes += 1
            bucket.squashed_instructions += event.squashed_instructions
        elif kind == "violation":
            self._bucket(event.origin).violations += 1
        elif kind == "task_commit":
            bucket = self._bucket(event.origin)
            bucket.tasks_committed += 1
            bucket.task_length_sum += event.length
            bucket.committed += event.length

    # -- results ---------------------------------------------------------------

    def origins(self):
        """Sorted origin keys ("entry" first, then trigger PCs)."""
        return sorted(self._by_origin, key=lambda key: (key != _ENTRY, key))

    def per_origin(self):
        """``{origin: raw counters + derived ratios}`` for every origin."""
        return {
            key: _derive(metrics.as_dict())
            for key, metrics in self._by_origin.items()
        }

    def totals(self):
        """Suite-level totals with derived ratios (see TOTAL_KEYS)."""
        totals = {
            "spawns": 0,
            "squashes": 0,
            "violations": 0,
            "committed": 0,
            "squashed_instructions": 0,
            "tasks_committed": 0,
            "task_length_sum": 0,
        }
        for metrics in self._by_origin.values():
            for key, value in metrics.as_dict().items():
                totals[key] += value
        return _derive(totals)

    def as_dict(self):
        """Picklable/JSON-able snapshot (``{"origins": …, "totals": …}``).

        Origin keys are stringified so the snapshot survives a JSON
        round trip unchanged.
        """
        return {
            "origins": {
                str(key): metrics for key, metrics in self.per_origin().items()
            },
            "totals": self.totals(),
        }

    def render(self, title=None):
        """The per-spawn-point attribution table as ASCII."""
        from repro.experiments.reporting import format_spawn_point_attribution

        return format_spawn_point_attribution(self.as_dict(), title=title)


def merge_metrics(snapshots):
    """Merge aggregator snapshots (``as_dict`` outputs) into one.

    Used by the parallel runner to combine the metrics shipped back
    from worker processes into per-policy suite totals.
    """
    merged_origins = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for origin, metrics in snapshot.get("origins", {}).items():
            bucket = merged_origins.setdefault(
                origin,
                {
                    "spawns": 0,
                    "squashes": 0,
                    "violations": 0,
                    "committed": 0,
                    "squashed_instructions": 0,
                    "tasks_committed": 0,
                    "task_length_sum": 0,
                },
            )
            for key in bucket:
                bucket[key] += metrics.get(key, 0)
    totals = {
        "spawns": 0,
        "squashes": 0,
        "violations": 0,
        "committed": 0,
        "squashed_instructions": 0,
        "tasks_committed": 0,
        "task_length_sum": 0,
    }
    for metrics in merged_origins.values():
        for key in totals:
            totals[key] += metrics.get(key, 0)
    return {
        "origins": {
            origin: _derive(dict(metrics))
            for origin, metrics in merged_origins.items()
        },
        "totals": _derive(totals),
    }
