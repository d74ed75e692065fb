"""Child processes of the benchmark; run.py starts each one in a fresh interpreter.

    python3 perfbench/probe.py setup CONFIG
        Imports possys, parses CONFIG and builds its scenario, then prints
        {"setup_s": seconds} for those three steps.

    python3 perfbench/probe.py trace SPANS CLI-ARG...
        Runs `possys CLI-ARG...` in this process with a span recorded around
        every call into a possys module function and into four dense numpy and
        scipy kernels, then writes the spans to SPANS as JSON and exits with the
        CLI's exit code.  The wrappers are installed from here; possys itself is
        not modified.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

# modules of src/possys, each one layer; errors.py holds only exception classes
LAYERS = ("lattice", "generators", "semigroup", "control", "perturbation", "iss", "scenarios", "cli")
# private functions that are layer boundaries of their own
PRIVATE = {("cli", "_sweep_row")}
# dense routines the layers call, reported as layer `kernel`
KERNELS = (
    ("scipy.linalg", "expm"),
    ("scipy.linalg", "solve_triangular"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "solve"),
)


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, thread id, bytes].

    The parent is the innermost open span on the calling thread.  A thread
    with no open span (a sweep pool worker) takes the main thread's innermost
    open span as its parent, which is the command that started the pool.
    `bytes` is filled for kernel spans only: the sizes of the arrays passed in
    and returned, computed, not a measured memory traffic.
    """

    def __init__(self):
        self.spans: list = []
        self._stacks: dict = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(self, name: str, fn, count_bytes: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = tracer._stacks.setdefault(ident, [])
            main = tracer._stacks.get(tracer._main) or [None]
            parent = stack[-1] if stack else main[-1]
            sid = tracer._new_id()
            stack.append(sid)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                nbytes = _array_bytes(args, out) if count_bytes else 0
                tracer.spans.append([sid, name, start, end, parent, ident, nbytes])

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([self._new_id(), name, start, end, None, self._main, 0])


def _array_bytes(args, out) -> int:
    total = sum(getattr(a, "nbytes", 0) for a in args)
    outs = out if isinstance(out, tuple) else (out,)
    return int(total + sum(getattr(o, "nbytes", 0) for o in outs))


def install(tracer: Tracer) -> None:
    """Wrap every public module-level function of each layer, under every name
    any layer binds it to, so that `from .generators import spectral_bound`
    in cli.py is traced as generators.spectral_bound.  Then wrap the kernels."""
    modules = {layer: importlib.import_module(f"possys.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
            if own and (not attr.startswith("_") or (layer, attr) in PRIVATE):
                wrapped[obj] = tracer.span(f"{layer}.{attr.lstrip('_')}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for module_name, attr in KERNELS:
        mod = importlib.import_module(module_name)
        setattr(mod, attr, tracer.span(f"kernel.{attr}", getattr(mod, attr), count_bytes=True))


def setup(config: str) -> int:
    start = time.perf_counter()
    import possys  # noqa: F401
    from possys import cli

    cfg = cli.RunConfig.from_file(config)
    cli.build_scenario(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def trace(spans_path: str, argv: list) -> int:
    tracer = Tracer()
    start = time.perf_counter()
    import possys  # noqa: F401
    from possys import cli

    tracer.record("import.possys", start, time.perf_counter())
    install(tracer)
    code = cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return code


def main(argv: list) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) >= 3 and argv[0] == "trace":
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
