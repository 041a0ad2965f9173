"""Atomic artifact writes: a reader sees the old file or the whole new one."""

from __future__ import annotations

import contextlib
import os
import uuid


@contextlib.contextmanager
def atomic_write(path):
    """Text handle on a temporary file next to ``path``, renamed onto it on success.

    If the body raises, the temporary file is removed and ``path`` keeps its
    previous state: absent, or with its old content.  A target that exists
    but is not a regular file (``/dev/stdout``, a pipe) is written directly.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{path}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
