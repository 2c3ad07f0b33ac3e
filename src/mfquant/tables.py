"""Artifact tables: the one on-disk format that pipeline stages share.

An artifact is a UTF-8 text file with one record per line and fields
joined by a single delimiter (tab or comma), optionally preceded by a
header line. Writers stream their lines to ``<file>.tmp`` and rename it
over the target, so a killed or failed write leaves the previous file
intact instead of a truncated one. Readers skip blank lines, require
every row to have as many fields as the first, and report every
malformed row as a DataError naming ``path:line``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import DataError

T = TypeVar("T")


def write_lines(path: str | Path, lines: Iterable[str], header: str | None = None) -> None:
    """Atomically replace ``path`` with ``header`` (if given) and ``lines``, one per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(f"{header}\n")
            for line in lines:
                handle.write(f"{line}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_rows(
    path: str | Path, parse: Callable[[list[str]], T] = list, *,
    sep: str = "\t", ncols: int | None = None, header: str | None = None,
) -> Iterator[T]:
    """Yield ``parse(fields)`` for each non-blank line of a table.

    A missing or unreadable file, a first line other than ``header``, a
    row whose field count differs from ``ncols`` (default: the first
    row's), or a ValueError raised by ``parse`` becomes a DataError that
    names the path and line number.
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        if header is not None and handle.readline().rstrip("\n") != header:
            raise DataError(f"{path}:1: expected header {header!r}")
        for lineno, line in enumerate(handle, start=1 if header is None else 2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(sep)
            ncols = ncols or len(fields)
            if len(fields) != ncols:
                raise DataError(f"{path}:{lineno}: expected {ncols} fields, got {len(fields)}")
            try:
                row = parse(fields)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            yield row


def write_vectors(path: str | Path, labels: Sequence[str], vectors: Iterable[np.ndarray]) -> None:
    """TSV of labeled vectors: label followed by its values at 9 significant digits."""
    write_lines(path, (
        label + "\t" + "\t".join(f"{x:.9g}" for x in vector)
        for label, vector in zip(labels, vectors)
    ))


def _parse_vector(fields: list[str]) -> tuple[str, list[float]]:
    if len(fields) < 2:
        raise ValueError("expected a label plus a vector")
    return fields[0], [float(x) for x in fields[1:]]


def read_vectors(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Labels and the (rows x k) matrix of a file written by write_vectors."""
    rows = list(read_rows(path, _parse_vector))
    if not rows:
        return [], np.zeros((0, 0), dtype=np.float64)
    return [label for label, _ in rows], np.array([v for _, v in rows], dtype=np.float64)
