"""A fixed reference pass that measures how fast the host runs right now.

On a shared host the same Python code runs at speeds up to 1.8x apart from
one ten-second stretch to the next, which buries a 25% regression bound.
The benchmark therefore runs this reference pass, which never changes,
between the operations it times, and scales each operation's wall time by
the passes on either side of it:

    scaled = wall * REFERENCE_S / mean(pass before, pass after)

A scaled time reads as the wall time the operation would take on a host
where one reference pass takes REFERENCE_S.  The program's own cost moves
it one for one; the host's speed cancels out.

The pass reads a fixed 819-triple Turtle text with the benchmark's own
reader and computes its RDFS closure of 4669 triples, four times over
(`gen.read_turtle`, `gen.closure`):
tokenizing, tuples, dicts and sets, like the work cloudaudit does.  Garbage
collection is off during it, so its time does not depend on the size of the
caller's heap.
"""

from __future__ import annotations

import gc
import random
import time

import gen

REFERENCE_S = 0.040  # about what one pass takes on a 2-vCPU cloud VM
PASSES = 4

_text: str | None = None


def _reference_text() -> str:
    global _text
    if _text is None:
        rng = random.Random(0)
        ns = gen.BENCH
        g = [(f"{ns}C{c}", gen.SUBCLASS, f"{ns}C{c - 1}") for c in range(1, 20)]
        for i in range(400):
            g.append((f"{ns}n{i}", gen.TYPE, f"{ns}C{rng.randrange(20)}"))
            g.append((f"{ns}n{i}", gen.LABEL, gen.lit(f"node {i}")))
        prefixes = "".join(f"@prefix {label}: <{iri}> .\n" for label, iri in gen.PREFIXES.items())
        _text = prefixes + gen.write_turtle(g)
    return _text


def reference_s() -> float:
    """Run one reference pass; its wall seconds."""
    text = _reference_text()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PASSES):
            gen.closure(gen.read_turtle(text))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(wall: float, before: float, after: float) -> float:
    """`wall` seconds scaled to a host where one pass takes REFERENCE_S."""
    return wall * REFERENCE_S / ((before + after) / 2)
