"""Atomic file writes and the journal reader shared by every
persistence path.

One pattern, one implementation: write to a sibling ``*.tmp`` file in
the target directory, fsync, then ``os.replace`` onto the final name,
then fsync the containing directory.  The replace is atomic on POSIX
(same filesystem, because the temp file lives next to the target), so
a kill mid-write leaves at worst a stray ``*.tmp`` file — never a
truncated target, and never a window where the old file is gone and
the new one is incomplete.  The directory fsync makes the *rename
itself* durable: without it a power loss shortly after ``os.replace``
can roll the directory entry back to the old file even though the new
data blocks were flushed.

The static-analysis rule REP002 (:mod:`repro.analysis.rules`) flags
truncating writes that bypass this module, so new persistence code is
steered here mechanically.

Append-only JSONL journals (the sweep checkpoint, the bench trend
history, telemetry traces) are read back by :func:`read_jsonl`, which
tolerates the one failure an append can leave behind: a torn final
line.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any

from repro.errors import InvalidParameterError


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entry table (durability of renames).

    Some filesystems do not support opening a directory for fsync
    (and Windows has no equivalent); failing to harden the rename is
    not worth failing the write, so errors are swallowed deliberately.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # repro: noqa[REP003] — best-effort durability
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_open(
    path: str | os.PathLike, mode: str = "w", **kwargs: Any
) -> Iterator[IO]:
    """Open ``path`` for writing through a temp file + ``os.replace``.

    Usage mirrors ``open``::

        with atomic_open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    The handle targets ``<path>.tmp``; on a clean exit the temp file
    is fsynced and renamed over ``path``.  If the body raises, the
    temp file is removed and ``path`` is untouched.

    ``mode`` must be a truncating write mode (``w``/``wb``/``x``/
    ``xb``): append modes cannot be made atomic this way.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise InvalidParameterError(
            f"atomic_open requires a truncating write mode, got {mode!r}"
        )
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(
    path: str | os.PathLike, text: str, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically."""
    with atomic_open(path, "w", encoding=encoding) as handle:
        handle.write(text)


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically."""
    with atomic_open(path, "wb") as handle:
        handle.write(data)


def read_jsonl(
    path: str | os.PathLike,
    error: type[Exception],
    what: str,
    on_torn_tail: Callable[[int], None],
) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each JSON object in a journal.

    Blank lines are skipped.  A final line that is not valid JSON — a
    writer killed mid-append — is dropped after calling
    ``on_torn_tail(line number)`` (callers emit their warning event);
    invalid JSON anywhere else, a record that is not a JSON object, or
    an unreadable file raises ``error`` naming the path (``what``
    labels it, e.g. ``"checkpoint"``) and the line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                on_torn_tail(lineno)
                return
            raise error(
                f"{what} {path}:{lineno}: not valid JSON ({exc.msg})"
            ) from exc
        if not isinstance(record, dict):
            raise error(
                f"{what} {path}:{lineno}: expected a JSON object, "
                f"got {type(record).__name__}"
            )
        yield lineno, record
