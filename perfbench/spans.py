"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files around the calls it
makes into the library; the library itself is not instrumented. A span
whose time cannot be taken inside its parent (a layer below the public
call) is timed by replaying the same public call on the same inputs and
recorded with the call's span as its parent, so self time is always the
span's duration minus the durations of its children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans of one run, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, name, start_ns, end_ns, parent_id, case)
        self.spans: list[tuple[int, str, int, int, int | None, str]] = []
        self._own: list[int] | None = None

    def add(self, name: str, start_ns: int, end_ns: int, parent: int | None = None, case: str = "") -> int:
        sid = len(self.spans)
        self._own = None
        self.spans.append((sid, name, start_ns, end_ns, parent, case))
        return sid

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its children."""
        if self._own is not None:
            return self._own
        out = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        self._own = out
        return out

    def total_ms(self, name: str, case: str | None = None, self_time: bool = False) -> float:
        """Summed (self) duration of the spans with this name and case."""
        own = self.self_ns() if self_time else None
        total = 0
        for sid, sname, start, end, _, scase in self.spans:
            if sname == name and (case is None or scase == case):
                total += own[sid] if self_time else end - start
        return total / 1e6

    def count(self, name: str, case: str | None = None) -> int:
        return sum(1 for s in self.spans if s[1] == name and (case is None or s[5] == case))

    def module_self_ms(self, roots: set[str]) -> tuple[float, dict[str, float]]:
        """Summed duration of the root spans named in ``roots``, and the self
        time of every span below them grouped by module (the name's first
        dotted part). The module times add up to the root total."""
        own = self.self_ns()
        root_of: dict[int, bool] = {}
        total = 0
        by_module: dict[str, float] = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            under = name in roots if parent is None else root_of[parent]
            root_of[sid] = under
            if not under:
                continue
            if parent is None:
                total += end - start
            by_module[name.split(".", 1)[0]] += own[sid] / 1e6
        return total / 1e6, dict(by_module)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, case in self.spans:
                record = {
                    "id": sid,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "run_id": self.run_id,
                }
                if case:
                    record["case"] = case
                fh.write(json.dumps(record) + "\n")
