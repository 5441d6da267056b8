"""Atomic file writes: outputs land complete or not at all."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable

from .errors import ConfigError

# mkstemp creates its file 0600; outputs get the mode a plain open() gives.
# The umask can only be read by setting it, so it is read once, at import.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to path via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def refuse_non_directory(directory: str | Path) -> None:
    """ConfigError if directory, or the nearest of its ancestors that exists, is not a directory.

    Nothing could be written under such a path, so a run calls this before
    it generates or fits anything.
    """
    directory = Path(directory)
    for path in (directory, *directory.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(
                    f"{directory} cannot be an output directory: "
                    f"{path} exists and is not a directory"
                )
            return


def refuse_foreign_entries(directory: str | Path, names: Iterable[str]) -> None:
    """ConfigError if directory holds an entry whose name is not in names.

    A run calls this before writing anything, so the tree it leaves holds
    only its own files; the same run again into the same directory passes.
    A directory that does not exist passes too; a path that is not a
    directory is refused (refuse_non_directory).
    """
    directory = Path(directory)
    refuse_non_directory(directory)
    if not directory.is_dir():
        return
    names = set(names)
    foreign = sorted(p.name for p in directory.iterdir() if p.name not in names)
    if foreign:
        entries = "entry" if len(foreign) == 1 else "entries"
        raise ConfigError(
            f"{directory} holds {len(foreign)} {entries} this run would not write, "
            f"e.g. {foreign[0]!r}; use an empty or new directory"
        )
