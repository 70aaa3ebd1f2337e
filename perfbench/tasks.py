"""Task bodies the worker pools execute.

Kept free of ``repro.me`` (which imports scipy) so a pool process loads
only what it runs; the driver checks every answer against
``repro.me.functions.ackley``.
"""

from __future__ import annotations

import json
import math
import time

EXP_ID = "perfbench"
WORK_TYPE = 0
DIM = 4


def ackley(x: list[float]) -> float:
    """Ackley (a=20, b=0.2, c=2*pi); global minimum 0 at the origin."""
    d = len(x)
    norm = math.sqrt(sum(v * v for v in x) / d)
    cos_term = sum(math.cos(2 * math.pi * v) for v in x) / d
    return -20.0 * math.exp(-0.2 * norm) - math.exp(cos_term) + 20.0 + math.e


def run_task(kind: str, payload: str) -> str:
    """Execute one payload: ``echo`` decodes and re-encodes it (the JSON
    round trip of a no-op Python task), ``ackley`` evaluates
    ``{"x": [x1..x4, sleep]}`` after sleeping ``sleep`` seconds."""
    if kind == "echo":
        return json.dumps(json.loads(payload))
    x = json.loads(payload)["x"]
    time.sleep(x[DIM])
    return json.dumps({"y": ackley(x[:DIM])})


def corrupt(kind: str, result: str) -> str:
    """A deliberately wrong answer (the self-tests check it is caught)."""
    if kind == "echo":
        return result + " "
    return json.dumps({"y": json.loads(result)["y"] + 1.0})
