"""File output: ``csv_text`` builds every CSV the package writes, and the
atomic writes mean a stage never leaves a partial output behind."""

from __future__ import annotations

import csv
import io
import os


def csv_text(header, rows):
    """The CSV text, LF line endings, of a header row and then ``rows``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def atomic_write_bytes(path, data):
    """Write to a sibling temp file, then rename over the target."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))
