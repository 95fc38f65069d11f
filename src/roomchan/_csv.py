"""The package's one CSV writer: every file it writes has this layout."""

from __future__ import annotations

# 17 significant digits read back as the same float64.
_FMT = "{:.17g}".format


def write_csv(path, header: str, *columns, comment=()) -> None:
    """Write ``header`` and one row per entry of the equal-length ``columns``.

    Numbers are written with 17 significant digits and strings as they are.
    ``comment`` holds ``(key, number)`` pairs for a leading ``# key=value``
    line, which is left out when there are none. Lines end in ``\\n`` and are
    written one at a time, so the file's text is never held whole.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write("# " + ",".join(f"{key}={_FMT(value)}" for key, value in comment) + "\n")
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(v if isinstance(v, str) else _FMT(v) for v in row) + "\n")
