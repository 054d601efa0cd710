"""The one on-disk entry format of both caches.

A sealed entry is a ``magic version sha256`` header line, then the body
the sha256 covers.  The result cache (:mod:`repro.experiments.parallel`)
and the analysis cache (:mod:`repro.analysis.pipeline`) write every
entry with :func:`write` and check it with :func:`unseal` before
unpickling anything.
"""

import hashlib
import os
import tempfile


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
