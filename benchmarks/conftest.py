"""Shared machinery for the figure/table benchmarks.

Each benchmark regenerates one of the paper's tables or figures and
writes the series to ``benchmarks/results/``. Heavy run matrices are
cached per session so Figure 6 (breakdown with failure) and Figure 7
(recovery time) share the same fault-injected runs, exactly as the paper
derives both from one set of experiments.

Environment knobs:

* ``MATCH_REPS``   — repetitions for fault-injected configs (default 2;
  the paper uses 5: set ``MATCH_REPS=5`` for full fidelity).
* ``MATCH_SCALES`` — comma-separated process counts (default Table I's
  ``64,128,256,512``).
* ``MATCH_APPS``   — comma-separated subset of apps (default all six).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api import run_averaged
from repro.core.configs import (
    DESIGN_NAMES,
    INPUT_SIZES,
    ExperimentConfig,
    valid_proc_counts,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

ALL_APPS = ("amg", "comd", "hpccg", "lulesh", "minife", "minivite")


def fault_reps() -> int:
    return int(os.environ.get("MATCH_REPS", "2"))


def bench_scales() -> tuple:
    raw = os.environ.get("MATCH_SCALES", "64,128,256,512")
    return tuple(int(x) for x in raw.split(","))


def bench_apps() -> tuple:
    raw = os.environ.get("MATCH_APPS", ",".join(ALL_APPS))
    return tuple(x for x in raw.split(",") if x in ALL_APPS)


def scales_for(app: str) -> tuple:
    return tuple(p for p in valid_proc_counts(app) if p in bench_scales())


def write_series(filename: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(text + "\n")
    print("\n" + text)


class ResultCache:
    """Session cache of averaged experiment results keyed by config."""

    def __init__(self):
        self._cache = {}

    def get(self, config: ExperimentConfig):
        key = (config.app, config.design, config.nprocs, config.input_size,
               config.inject_fault)
        if key not in self._cache:
            reps = fault_reps() if config.inject_fault else 1
            self._cache[key] = run_averaged(config, repetitions=reps)
        return self._cache[key]

    # -- the paper's two experiment matrices -----------------------------
    def scaling_series(self, app: str, inject_fault: bool):
        """Rows of Figures 5/6/7 for one app: (nprocs, design, result)."""
        rows = []
        for nprocs in scales_for(app):
            for design in DESIGN_NAMES:
                config = ExperimentConfig(app=app, design=design,
                                          nprocs=nprocs,
                                          inject_fault=inject_fault)
                rows.append((nprocs, design, self.get(config)))
        return rows

    def input_series(self, app: str, inject_fault: bool):
        """Rows of Figures 8/9/10 for one app: (input, design, result)."""
        rows = []
        for input_size in INPUT_SIZES:
            for design in DESIGN_NAMES:
                config = ExperimentConfig(app=app, design=design, nprocs=64,
                                          input_size=input_size,
                                          inject_fault=inject_fault)
                rows.append((input_size, design, self.get(config)))
        return rows


@pytest.fixture(scope="session")
def results():
    return ResultCache()


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)
