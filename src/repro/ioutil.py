"""Crash-safe file writes.

Every artifact writer in the repo (registry JSON/CSV/txt export, trace
export) goes through :func:`atomic_write_text`: the content lands in a
temp file in the destination directory, is fsynced, and is renamed into
place with ``os.replace`` — so a killed process can never leave a
truncated artifact behind, only the old file or the complete new one.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: "str | os.PathLike", content: str) -> None:
    """Write ``content`` to ``path`` all-or-nothing.

    The temp file lives next to the destination (``os.replace`` must not
    cross filesystems) and is removed on any failure, so interrupted
    writes leave no debris.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
