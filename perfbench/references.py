"""Reference digests of expected outputs, recorded with the benchmark.

``references.json`` maps workload -> input size -> seed -> digest for
the default seed and the held-out seed.  Runs at other seeds still
check determinism and internal agreement, just not a recorded digest.
Record with ``python3 perfbench/run.py --workload W --seed S --record``.
"""

from __future__ import annotations

import json

from common import HERE

PATH = HERE / "references.json"


def _load() -> dict:
    if not PATH.is_file():
        return {}
    return json.loads(PATH.read_text())


def expected_digest(workload: str, size: int, seed: int) -> str | None:
    return _load().get(workload, {}).get(str(size), {}).get(str(seed))


def record_digest(workload: str, size: int, seed: int, value: str) -> None:
    data = _load()
    data.setdefault(workload, {}).setdefault(str(size), {})[str(seed)] = value
    PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
