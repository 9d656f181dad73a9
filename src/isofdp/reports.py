"""Artifact writers: atomic CSV/JSON output and label-file round trips."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

from .graph import GraphParseError, _read_text

__all__ = [
    "atomic_write_text",
    "write_csv",
    "save_labels",
    "load_labels",
    "build_report",
    "report_json",
]


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def save_labels(path, tokens, labels) -> None:
    """Sidecar truth/prediction file: ``token<TAB>community`` per line."""
    lines = [f"{tok}\t{int(lab)}" for tok, lab in zip(tokens, labels)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_labels(source) -> dict:
    """Read a label file back as token -> community id.

    Raises:
        GraphParseError: a line does not hold a token and an integer community,
            or repeats the token of an earlier line.
    """
    text = _read_text(source)
    out, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise GraphParseError(f"label file line {lineno}: expected 'token<TAB>community'")
        if parts[0] in line_of:
            raise GraphParseError(
                f"label file line {lineno}: token {parts[0]!r} repeats line {line_of[parts[0]]}"
            )
        line_of[parts[0]] = lineno
        try:
            out[parts[0]] = int(parts[1])
        except ValueError:
            raise GraphParseError(
                f"label file line {lineno}: community {parts[1]!r} is not an integer"
            ) from None
    return out


def build_report(config: dict, result, metrics: dict | None = None) -> dict:
    """Assemble the detection report payload from a pipeline result."""
    report = {
        "config": config,
        "k_star": int(result.k_star),
        "communities": result.communities_by_token(),
        "sweep": [[int(k), float(d)] for k, d in result.sweep.table()],
        "metrics": metrics or {},
        "timings_ms": {k: round(v * 1000.0, 3) for k, v in result.timings.items()},
    }
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def embedding_header(dim: int) -> list:
    """The header of the embedding CSV: ``token``, then ``x1..x<dim>``."""
    return ["token"] + [f"x{j + 1}" for j in range(dim)]


def embedding_rows(tokens, coordinates):
    """One CSV row per node: its token, then its coordinates as ``repr`` floats."""
    for tok, row in zip(tokens, coordinates):
        yield [tok] + [repr(float(x)) for x in row]


def decision_graph_rows(result):
    prof = result.profile
    for i, tok in enumerate(result.graph.tokens):
        yield [
            tok,
            int(prof.rho[i]),
            repr(float(prof.delta[i])),
            repr(float(prof.gamma[i])),
        ]
