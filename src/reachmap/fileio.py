"""Atomic file writes: write a sibling temp file, then rename over the target."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def write_bytes_atomic(path, data: bytes) -> None:
    write_chunks_atomic(path, (data,))


def write_chunks_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks in order; the target appears only once all are written."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
