"""The one CSV cell format every report shares.

A ``str`` cell is written unchanged; any other cell is written as
``repr(float(v))``, the shortest text that reads back to the same double
whether a Python float, an int or a numpy scalar carried it.  Callers
spell out ints, booleans and missing values as strings themselves.
"""
from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["csv_text"]


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header`` and ``rows`` as comma-separated, newline-terminated lines."""
    lines = [",".join(header)]
    lines.extend(
        ",".join(v if isinstance(v, str) else repr(float(v)) for v in row) for row in rows
    )
    return "\n".join(lines) + "\n"
