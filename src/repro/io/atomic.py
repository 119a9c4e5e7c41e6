"""Crash-safe file replacement for segments, manifests and checkpoints.

:func:`atomic_write` gives every writer its own temp file beside the
target, so concurrent writers never clobber each other's half-written
bytes: the last rename wins whole.  The temp file is flushed and
fsynced before the rename, and the directory after it, so a crash
leaves either the old file or the new one, never a torn mix.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from typing import IO, Iterator, Optional, Union


@contextlib.contextmanager
def atomic_write(
    path: Union[str, os.PathLike],
    mode: str = "w",
    encoding: Optional[str] = None,
) -> Iterator[IO]:
    """Open a unique temp file beside *path* and publish it on exit.

    On a clean exit the file is flushed, fsynced and ``os.replace``-d
    over *path*, then the directory is fsynced.  If the body raises,
    the temp file is removed and *path* is left untouched.  *mode* is
    ``"w"`` or ``"wb"``.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    # O_EXCL: a name clash fails loudly instead of sharing a file; mode
    # 0o666 lets the umask decide permissions, as open() would.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    _fsync_directory(os.path.dirname(os.path.abspath(path)))


def _fsync_directory(directory: str) -> None:
    """Persist a rename: fsync the directory entry (POSIX only)."""
    if os.name != "posix":
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


__all__ = ["atomic_write"]
