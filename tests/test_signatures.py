"""Thresholds, tolerances and seeds are module constants, not keyword
arguments: each cut-off is set in one place."""

import importlib
import inspect
import pkgutil

import geomfreq

ALLOWED = set()


def test_no_tolerance_or_seed_keywords():
    found = set()
    for info in pkgutil.iter_modules(geomfreq.__path__):
        mod = importlib.import_module(f"geomfreq.{info.name}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ != mod.__name__:
                continue
            found.update(
                (mod.__name__, name, p)
                for p in inspect.signature(fn).parameters
                if p.startswith("eps") or p.endswith("_tol") or p == "seed"
            )
    assert found == ALLOWED
