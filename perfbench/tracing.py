"""Span tracing of the wristband layers, installed from outside the package.

The package's modules import each other's functions by name (for example
`calibration`, `pairwise` and `spectral` each bind `wristband_forward`), so
wrapping a function only where it is defined would miss every internal
call.  `install` therefore rebinds every attribute of every loaded
`wristband` module that points at a traced function, and refuses to run
if a traced function is missing or still bound unwrapped anywhere.

A span is (span id, name, start ns, end ns, parent span id, op id).  Spans
stay in memory in the `Tracer` and are handed out once, when the run ends.
A span's self time is its duration minus the union of its children's
intervals; call counts are the number of spans per name.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

# The traced functions of each layer, by the module that defines them.
# `baselines`, `io` and `cli` are left out on purpose: no workload is slow
# in them.
LAYERS = {
    "specfun": ("chi2_cdf_array", "chi2_pdf_array", "scaled_bessel_i"),
    "wristband_map": ("wristband_forward", "wristband_backward", "validate_point_batch"),
    "pairwise": ("pairwise_repulsion_loss", "pairwise_value_from_wristband"),
    "spectral": ("spectral_loss", "spectral_value_from_wristband", "spectral_coefficients"),
    "accelerators": (
        "radial_w2_loss",
        "moment_w2_loss",
        "radial_w2_value_from_wristband",
        "moment_w2_value",
        "symmetric_eigen",
    ),
    "generators": ("gaussian_batch",),
    "calibration": ("standardized_wristband_loss", "calibrate_null"),
    "optimize": ("adam_step", "optimize_point_cloud"),
    "evaluation": (
        "barycentric_reference",
        "barycentric_z_score",
        "w2_exact",
        "hungarian_assign",
    ),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

NO_PARENT = -1


class TraceCoverageError(RuntimeError):
    """A traced function is missing, or bound somewhere without its wrapper."""


class Tracer:
    """In-memory span recorder shared by all wrappers of one run."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, error_type):
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else NO_PARENT
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except error_type:
                self.errors[module] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op_id))

        return traced


def _package_modules(package):
    """The package and every submodule, imported so that all bindings exist."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


class Installation:
    """Every module attribute rebound to a wrapper, switchable on and off."""

    def __init__(self, sites):
        self._sites = sites  # (module, attribute, original, wrapper)

    def enable(self):
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def disable(self):
        for mod, attr, original, _ in self._sites:
            setattr(mod, attr, original)


def _bindings(modules, targets):
    """(module, attribute, object) for every module attribute that is one of `targets`."""
    return [
        (mod, attr, val)
        for mod in modules
        for attr, val in list(vars(mod).items())
        if id(val) in targets and targets[id(val)][0] is val
    ]


def install(tracer: Tracer, package, error_type, layers=LAYERS) -> Installation:
    """Wrap every binding of the `layers` functions in `package`'s modules.

    Returns the installation, enabled.  Raises TraceCoverageError if a
    listed function does not exist, or if any binding of it is left
    unwrapped afterwards.
    """
    modules = _package_modules(package)
    by_name = {mod.__name__: mod for mod in modules}
    targets = {}  # id(original) -> (original, wrapper)
    missing = []
    for mod_name, fns in layers.items():
        mod = by_name.get(f"{package.__name__}.{mod_name}")
        for fn in fns:
            name = f"{mod_name}.{fn}"
            original = getattr(mod, fn, None)
            if not callable(original) or id(original) in targets:
                missing.append(name)
                continue
            targets[id(original)] = (original, tracer.wrap(name, original, error_type))
    if missing:
        raise TraceCoverageError(f"traced functions missing or listed twice: {', '.join(missing)}")

    installation = Installation(
        [(mod, attr, val, targets[id(val)][1]) for mod, attr, val in _bindings(modules, targets)]
    )
    installation.enable()
    left = _bindings(modules, targets)
    if left:
        installation.disable()
        names = ", ".join(f"{mod.__name__}.{attr}" for mod, attr, _ in left)
        raise TraceCoverageError(f"unwrapped bindings remain: {names}")
    return installation


def merged_length(intervals) -> int:
    """Total length of the union of half-open (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, tuple[int, int]]:
    """name -> (calls, self ns) for a list of spans.

    Children are clipped to their parent's interval before the union is
    taken, so a child that outlives its parent cannot make self time
    negative.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for sid, name, start, end, _, _ in spans:
        clipped = ((max(s, start), min(e, end)) for s, e in children.get(sid, ()))
        covered = merged_length((s, e) for s, e in clipped if e > s)
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, ns) for name, (calls, ns) in out.items()}
