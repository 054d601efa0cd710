"""The warm figure path reads little: the analysis static parts stay compact.

A warm regeneration of the figures serves every program's analyses from
its sealed static part (see :mod:`repro.analysis.pipeline`), so the
bytes of those parts are the bulk of what that path reads and unpickles.
Format v6 keeps a program's data as byte segments and pickles each
instruction's operands only; together the twelve figure programs'
static parts at scale 0.25 fell from 1,339,848 bytes (v5) to 569,161.
Format v7 drops each instruction's source line (its ``repr``
disassembles instead), which takes them to 450,937.  The bound below
leaves room for analyses to grow a little, but fails a representation
that grows back.
"""

import glob
import os

from repro.analysis.pipeline import AnalysisCache
from repro.workloads.suite import WORKLOAD_NAMES, workload_source

#: Bound on the summed static-part bytes of the figure programs.
MAX_STATIC_PART_BYTES = 520_000


def test_figure_static_parts_stay_compact(tmp_path):
    root = str(tmp_path / "analysis")
    cache = AnalysisCache(root)
    try:
        for name in WORKLOAD_NAMES:
            cache.analyses_for(workload_source(name, 0.25))
        paths = glob.glob(os.path.join(root, "*", "*.pkl"))
        assert len(paths) == len(WORKLOAD_NAMES)
        total = sum(os.path.getsize(path) for path in paths)
        assert total <= MAX_STATIC_PART_BYTES, total
    finally:
        cache.clear()  # unfreezes what the cache froze
