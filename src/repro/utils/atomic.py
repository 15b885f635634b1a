"""Atomic file replacement: a reader sees the old file or the new one."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: Path | str, mode: str = "w") -> Iterator[IO]:
    """Open a temp file beside ``path`` for the caller to fill.

    When the block exits cleanly the temp file replaces ``path``; when
    anything fails (a full disk, an exception while writing) it is
    removed and the error propagates, so no torn target and no stray
    ``.tmp-*`` file is left behind. Parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
