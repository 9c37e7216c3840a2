"""File formats: channel JSON, trajectory JSON, CSV emitters.

Channel JSON is either an explicit Kraus list

    {"dim": n, "kraus": [[[ [re, im], ... ] per row ] per operator ]}

or a named channel

    {"standard": "<kind>", "param": x}

with kind one of :data:`unitarity.channels.STANDARD_KINDS`.
Complex numbers always serialize as two-element [re, im] arrays.

Trajectory JSON is {"dim": n, "times": [...], "channels": [channel, ...]}
with one channel object per time point, at strictly ascending times.
Every number must be a JSON number within the float range ("dim" an
integral one); a boolean or a numeric string is a FormatError.

The Table 1, tightness and distribution CSVs are each a header line, then
one row per record at 17 significant digits. A Table 1 row and a tightness
record are named tuples whose fields are their CSV's columns, in order.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from typing import Iterable

import numpy as np

from .channels import KrausChannel, standard_channel
from .harness import CHUNK, Trajectory


class FormatError(ValueError):
    """Malformed input file or object."""


def matrix_to_obj(mat: np.ndarray) -> list:
    """Encode a complex matrix as nested [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number a float holds: an int (not a bool) or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def matrix_from_obj(obj, what: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what}: expected nested [re, im] pairs: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise FormatError(f"{what}: expected shape (rows, cols, 2), got {arr.shape}")
    if not all(_is_number(x) for row in obj for pair in row for x in pair):
        raise FormatError(f"{what}: every [re, im] entry must be a number")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_obj(ch: KrausChannel) -> dict:
    return {"dim": ch.dim, "kraus": [matrix_to_obj(op) for op in ch.kraus]}


def _dim_field(obj: dict, what: str) -> int:
    """The ``"dim"`` entry of ``obj``: an integral number (2.0 is taken as 2)."""
    dim = obj["dim"]
    if not (_is_number(dim) and (isinstance(dim, int) or dim.is_integer())):
        raise FormatError(f"{what}: 'dim' must be an integer, got {dim!r}")
    return int(dim)


def channel_from_obj(obj) -> KrausChannel:
    if not isinstance(obj, dict):
        raise FormatError(f"channel: expected a JSON object, got {type(obj).__name__}")
    if "standard" in obj:
        param = obj.get("param")
        if not _is_number(param):
            raise FormatError(f"channel: standard form needs a numeric 'param', got {param!r}")
        try:
            return standard_channel(obj["standard"], float(param))
        except ValueError as exc:
            raise FormatError(f"channel: {exc}") from None
    if "dim" not in obj or "kraus" not in obj:
        raise FormatError("channel: expected keys 'dim' and 'kraus' (or 'standard')")
    dim = _dim_field(obj, "channel")
    kraus_objs = obj["kraus"]
    if not isinstance(kraus_objs, list) or not kraus_objs:
        raise FormatError("channel: 'kraus' must be a nonempty list")
    ops = tuple(
        matrix_from_obj(op, what=f"kraus[{k}]") for k, op in enumerate(kraus_objs)
    )
    try:
        return KrausChannel(dim, ops)
    except ValueError as exc:
        raise FormatError(f"channel: {exc}") from None


def load_json(path: str):
    """Parse a UTF-8 JSON file, turning undecodable bytes, syntax errors and
    nesting too deep to parse into FormatError with context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise FormatError(f"{path}: invalid JSON: nested too deeply to parse") from None


def load_channel(path: str) -> KrausChannel:
    return channel_from_obj(load_json(path))


def save_channel(ch: KrausChannel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_obj(ch), fh)
        fh.write("\n")


def trajectory_from_obj(obj) -> Trajectory:
    """Parse {"dim", "times", "channels"} into a :class:`Trajectory`."""
    if not isinstance(obj, dict):
        raise FormatError("trajectory: expected a JSON object")
    for key in ("dim", "times", "channels"):
        if key not in obj:
            raise FormatError(f"trajectory: missing key {key!r}")
    dim = _dim_field(obj, "trajectory")
    times = obj["times"]
    if not (isinstance(times, list) and all(map(_is_number, times))):
        raise FormatError("trajectory: 'times' must be an array of numbers")
    if not isinstance(obj["channels"], list):
        raise FormatError("trajectory: 'channels' must be a list")
    channels = [channel_from_obj(c) for c in obj["channels"]]
    for ch in channels:
        if ch.dim != dim:
            raise FormatError(f"trajectory: channel dim {ch.dim} != declared dim {dim}")
    try:
        return Trajectory(times=tuple(times), channels=tuple(channels))
    except ValueError as exc:
        raise FormatError(f"trajectory: {exc}") from None


def load_trajectory(path: str) -> Trajectory:
    return trajectory_from_obj(load_json(path))


def _blocks(row_format: str, rows):
    """The sequence ``rows`` through ``row_format``, ``CHUNK`` rows at a time
    with one ``%`` operation a block, as one string a block."""
    for start in range(0, len(rows), CHUNK):
        block = rows[start:start + CHUNK]
        yield row_format * len(block) % tuple(chain.from_iterable(block))


def _write_rows(path: str, head: str, row_format: str, rows) -> None:
    """Write ``head``, then the sequence ``rows`` through ``row_format``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(_blocks(row_format, rows))


TABLE1_HEADER = "family,param,du,closed_form,error,method"


def write_table1_csv(report, path: str) -> None:
    """Emit the rows of a Table 1 report, in the report's order."""
    _write_rows(path, TABLE1_HEADER + "\n", "%s," + "%.17g," * 4 + "%s\n", report.rows)


TIGHTNESS_HEADER = "du,lb1,lb2,lb1_err,lb2_err,ub,seed"
_TIGHTNESS_ROW = "%.17g," * 6 + "%d\n"


def write_tightness_csv(records: Iterable, path: str, by_ub_path: str | None = None) -> None:
    """Emit tightness records sorted by du to ``path`` and, given
    ``by_ub_path``, sorted by ub to that path.

    Each record is formatted once, whichever files are written. Both sorts
    are stable, so tied records keep their input order.
    """
    records = tuple(records)
    lines = "".join(_blocks(_TIGHTNESS_ROW, records)).splitlines(keepends=True)
    orders = [(path, [r.du_value for r in records])]
    if by_ub_path is not None:
        orders.append((by_ub_path, [r.ub for r in records]))
    for out, key in orders:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(TIGHTNESS_HEADER + "\n")
            fh.writelines([lines[i] for i in np.argsort(key, kind="stable").tolist()])


DISTRIBUTION_HEADER = "bin_lo,bin_hi,count"


def write_distribution_csv(hist, path: str) -> None:
    """Emit one DU histogram with its summary line, which names the binned column."""
    edges = hist.bin_edges.tolist()
    summary = (f"# mean={hist.mean:.17g} samples={hist.sample_count} "
               f"env_dim={hist.env_dim} seed={hist.seed} du_column={hist.du_column}\n")
    rows = list(zip(edges[:-1], edges[1:], hist.counts.tolist()))
    _write_rows(path, summary + DISTRIBUTION_HEADER + "\n", "%.17g,%.17g,%d\n", rows)
