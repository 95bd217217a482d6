"""Per-layer spans for a traced, in-process run of the bohmatom CLI.

The layers are the package modules. The tracer wraps the public functions
listed in TIMED and patches each wrapper into every bohmatom module that
imported the function by name (``cli.dirac_current``,
``trajectory_engine.bohm_velocity``, ...), so calls between modules are seen
too. Every call becomes a span (name, parent, start, end) held in flat arrays
in memory; self times and counts are computed from them when the run ends,
and the spans are written to an .npz file.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Timed layer functions: metric prefix -> (module, attribute path in the module).
TIMED = {
    "dirac_states.dirac_ground_state": ("dirac_states", "dirac_ground_state"),
    "dirac_states.dirac_current": ("dirac_states", "dirac_current"),
    "dirac_states.bohm_velocity": ("dirac_states", "bohm_velocity"),
    "dirac_states.radial_amplitude": ("dirac_states", "radial_amplitude"),
    "schrodinger_states.hydrogen_wavefunction": ("schrodinger_states", "hydrogen_wavefunction"),
    "schrodinger_states.bohm_momentum": ("schrodinger_states", "bohm_momentum"),
    "schrodinger_states.probability_current": ("schrodinger_states", "probability_current"),
    "special_functions.associated_laguerre": ("special_functions", "associated_laguerre"),
    "special_functions.spherical_harmonic": ("special_functions", "spherical_harmonic"),
    "special_functions.gamma_function": ("special_functions", "gamma_function"),
    "coords.from_cartesian": ("coords", "SphericalPoint.from_cartesian"),
    "coords.vector_to_cartesian": ("coords", "vector_to_cartesian"),
    "coords.vector_to_spherical": ("coords", "vector_to_spherical"),
    "trajectory_engine.integrate_trajectory": ("trajectory_engine", "integrate_trajectory"),
    "trajectory_engine.circular_orbit": ("trajectory_engine", "circular_orbit"),
    "dilation.make_report": ("dilation", "make_report"),
    "dilation.mean_lorentz_factor": ("dilation", "mean_lorentz_factor"),
    "dilation.lorentz_factor": ("dilation", "lorentz_factor"),
    "quadrature.angular_nodes": ("quadrature", "angular_nodes"),
}

#: Counted, untimed calls: metric name -> (module, attribute path).
COUNTED = {
    "coords.SphericalPoint.calls": ("coords", "SphericalPoint.__post_init__"),
    "trajectory_engine.field_evals": ("trajectory_engine", "VelocityField.__call__"),
}

CLI_SPAN = "cli"


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit and better direction."""
    units = {
        "import.bohmatom_cli_s": ("s", "lower"),
        "import.scipy_special_s": ("s", "lower"),
        "cli.self_s": ("s", "lower"),
        "cli.rows_per_s": ("rows/s", "higher"),
    }
    for name in TIMED:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units.update({name: ("count", "lower") for name in COUNTED})
    units["trajectory_engine.evals_per_step"] = ("evals/step", "lower")
    units["trajectory_engine.us_per_step"] = ("us", "lower")
    units["dilation.mean_lorentz_factor.distinct_ratio"] = ("ratio", "higher")
    units["dilation.useful_node_ratio"] = ("ratio", "higher")
    units["quadrature.nodes"] = ("count", "lower")
    units["trace.overhead_s"] = ("s", "lower")
    return units


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "bohmatom" or name.startswith("bohmatom.")]


class Tracer:
    """Records spans around calls into the layers while installed."""

    def __init__(self):
        self.names: list[str] = [CLI_SPAN, *TIMED]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.nodes: dict[int, int] = {}
        self.steps = 0
        self.atom_keys: list[tuple[int, tuple]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._ids[name])
        try:
            yield idx
        finally:
            self._close(idx)

    def _root(self, idx: int) -> int:
        while self.parent[idx] >= 0:
            idx = self.parent[idx]
        return idx

    def _timed(self, name: str, fn):
        name_id = self._ids[name]
        open_, close = self._open, self._close
        on_result = getattr(self, "_after_" + name.split(".")[-1], None)

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(idx, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- payloads recorded at the layer boundary

    def _after_angular_nodes(self, idx, args, kwargs, result):
        self.nodes[idx] = len(result[0])

    def _after_integrate_trajectory(self, idx, args, kwargs, result):
        self.steps += int(kwargs["steps"] if "steps" in kwargs else args[3])

    def _after_mean_lorentz_factor(self, idx, args, kwargs, result):
        # Completed calls only: one that raises never reaches a result.
        self.atom_keys.append((self._root(idx), tuple(args[:2])))

    # -- patching

    def _patch(self, module_name: str, path: str, make):
        module = sys.modules.get(f"bohmatom.{module_name}")
        if module is None:
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                return
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            self._restore.append((owner, attr, raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod in _package_modules():
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))

    @contextmanager
    def installed(self):
        """Patch the wrappers in; restore the original functions on exit."""
        try:
            for name, (module, path) in TIMED.items():
                self._patch(module, path, lambda fn, name=name: self._timed(name, fn))
            for name, (module, path) in COUNTED.items():
                self._patch(module, path, lambda fn, name=name: self._counted(name, fn))
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    # -- results

    def _arrays(self):
        return (
            np.array(self.span_name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
        )

    def metrics(self, rows: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; ``rows`` is the table rows written."""
        ids, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child

        out: dict[str, float] = {}
        cli_mask = ids == self._ids[CLI_SPAN]
        cli_self = float(self_time[cli_mask].sum())
        out["cli.self_s"] = cli_self
        out["cli.rows_per_s"] = rows / cli_self if cli_self > 0.0 else 0.0
        for name in TIMED:
            mask = ids == self._ids[name]
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(self_time[mask].sum())
        for name in COUNTED:
            out[name] = self.counts[name]

        evals = self.counts["trajectory_engine.field_evals"]
        integrate = float(dur[ids == self._ids["trajectory_engine.integrate_trajectory"]].sum())
        out["trajectory_engine.evals_per_step"] = evals / self.steps if self.steps else 0.0
        out["trajectory_engine.us_per_step"] = 1e6 * integrate / self.steps if self.steps else 0.0

        calls = len(self.atom_keys)
        out["dilation.mean_lorentz_factor.distinct_ratio"] = len(set(self.atom_keys)) / calls if calls else 1.0
        out["dilation.useful_node_ratio"] = self._useful_node_ratio(ids)
        out["quadrature.nodes"] = sum(self.nodes.values())
        return out

    def _useful_node_ratio(self, ids: np.ndarray) -> float:
        """Quadrature nodes that reach a mean Lorentz factor / nodes evaluated for it.

        Within one mean_lorentz_factor call the finest rule gives the result;
        coarser rules only feed its convergence test.
        """
        owner = self._ids["dilation.mean_lorentz_factor"]
        per_call: dict[int, list[int]] = {}
        for idx, count in self.nodes.items():
            p = self.parent[idx]
            while p >= 0 and ids[p] != owner:
                p = self.parent[p]
            if p >= 0:
                per_call.setdefault(p, []).append(count)
        evaluated = sum(sum(c) for c in per_call.values())
        useful = sum(max(c) for c in per_call.values())
        return useful / evaluated if evaluated else 1.0

    def write(self, path: Path) -> None:
        ids, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=ids, parent=parent, start=start, end=end)
