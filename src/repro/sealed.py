"""The one on-disk entry format of both caches.

A sealed entry is a ``magic version sha256`` header line, then the body
the sha256 covers.  The result cache (:mod:`repro.experiments.parallel`)
and the analysis cache (:mod:`repro.analysis.pipeline`) write every
entry with :func:`write`, check it with :func:`unseal` before
unpickling anything, and prune their trees with :func:`sweep`.
"""

import glob
import hashlib
import os
import tempfile
import time

#: Age in seconds past which a ``*.tmp`` file in a shard directory is a
#: leftover of a writer that died between ``mkstemp`` and
#: ``os.replace``.  A younger one may belong to a live :func:`write`,
#: whose ``os.replace`` would fail if the file were deleted under it.
STALE_TEMP_SECONDS = 3600.0


def _header(body, magic, version):
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return b"%s %d %s\n" % (magic, version, digest)


def seal(body, magic, version):
    """``body`` behind the header line that verifies it."""
    return _header(body, magic, version) + body


def unseal(data, magic, version):
    """The body of sealed ``data`` as a view, not a copy; ``ValueError``
    on a bad header, a version skew or a digest mismatch."""
    start = data.find(b"\n") + 1
    body = memoryview(data)[start:]
    if not start or data[:start] != _header(body, magic, version):
        raise ValueError("entry failed its envelope check")
    return body


def write(path, data):
    """Atomically replace ``path`` with ``data`` (temporary file plus
    :func:`os.replace`, so concurrent writers race harmlessly and no
    reader sees a torn file).  Raises on failure, leaving no temporary
    file behind."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def sweep(root, magic, version, max_bytes=None, stale_suffixes=()):
    """Prune one tree of sealed entries (``root/??/<digest>.pkl``).

    In one walk of the two-character shard directories, every entry
    failing its envelope check (damage, or an older format) is removed,
    as are ``*.tmp`` files older than :data:`STALE_TEMP_SECONDS` and
    files ending in one of ``stale_suffixes`` (parts an older format
    wrote).  Then, while the surviving entries exceed ``max_bytes``,
    the least-recently-written (smallest mtime) are evicted;
    ``max_bytes=None`` skips this pass.  Emptied shard directories are
    removed.  Returns a report dict (``removed_corrupt``,
    ``removed_lru``, ``removed_temp``, ``removed_stale``,
    ``removed_bytes``, ``kept_entries``, ``kept_bytes``).
    """
    keys = "removed_corrupt removed_lru removed_temp removed_stale removed_bytes"
    report = dict.fromkeys(keys.split(), 0)
    survivors = []
    temp_cutoff = time.time() - STALE_TEMP_SECONDS
    for path in sorted(glob.glob(os.path.join(glob.escape(root), "??", "*"))):
        try:
            status = os.stat(path)
            if path.endswith(".pkl"):
                with open(path, "rb") as handle:
                    data = handle.read()
                try:
                    unseal(data, magic, version)
                except ValueError:
                    removed = "removed_corrupt"
                else:
                    survivors.append((status.st_mtime, path, status.st_size))
                    continue
            elif path.endswith(".tmp") and status.st_mtime < temp_cutoff:
                removed = "removed_temp"
            elif path.endswith(stale_suffixes):
                removed = "removed_stale"
            else:
                continue
            os.unlink(path)
        except OSError:
            continue
        report[removed] += 1
        report["removed_bytes"] += status.st_size
    if max_bytes is not None:
        # Newest first, so the oldest entry is always the last one.
        survivors.sort(reverse=True)
        total = sum(size for _, _, size in survivors)
        while survivors and total > max_bytes:
            _, path, size = survivors.pop()
            try:
                os.unlink(path)
            except OSError:
                pass
            total -= size
            report["removed_lru"] += 1
            report["removed_bytes"] += size
    # The trailing separator matches directories only.
    for shard in glob.glob(os.path.join(glob.escape(root), "??", "")):
        try:
            os.rmdir(shard)
        except OSError:
            pass
    report["kept_entries"] = len(survivors)
    report["kept_bytes"] = sum(size for _, _, size in survivors)
    return report
