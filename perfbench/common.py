"""Shared plumbing: locating the checkout, importing ``repro`` from its
sources, order statistics and the metric declarations in
``BENCHMARK.json``."""

from __future__ import annotations

import json
import math
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SOURCE_DIR = CHECKOUT / "src"
SPEC_PATH = CHECKOUT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    An installed copy elsewhere on the path would measure the wrong
    program, so the imported package must live under ``SOURCE_DIR``.
    """
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro sources under {SOURCE_DIR}")
    if str(SOURCE_DIR) not in sys.path:
        sys.path.insert(0, str(SOURCE_DIR))
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SOURCE_DIR not in origin.parents:
        raise SetupError(f"repro imported from {origin}, not {SOURCE_DIR}")
    return repro


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values) -> float:
    return quantile(values, 0.5)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def declared_units(section: str) -> "dict[str, str]":
    """``{metric name: unit}`` for one section of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in load_spec()[section]}
