"""One benchmark operation: a fresh interpreter that runs one CLI command.

    python3 child.py RESULT.json [--trace] -- ARGV...

Imports ``massart_forge.cli`` (the package must be on PYTHONPATH), records
``time.perf_counter()`` just before and just after ``cli.main(ARGV)``, and
writes those instants, the exit code and, with ``--trace``, the per-layer
spans to RESULT.json.  ``perf_counter`` is the system-wide monotonic clock
on Linux, so the parent can subtract its own spawn instant to get set-up
time.  An empty ARGV stops after the import: a set-up-only sample.

Tracing wraps functions from outside: every binding of a traced function
in every loaded ``massart_forge`` module is replaced (``sqlab.hp_sample``
and ``instance.sample`` are the same function as ``hardpair.sample``), and
so are the traced methods on their classes.  No source file changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Span:
    __slots__ = ("calls", "total", "self_time", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0


def _rows(result) -> int:
    """Rows of an array result; a (data, labels) pair counts its labels."""
    if isinstance(result, tuple):
        result = result[-1]
    return result.shape[0] if result.ndim > 1 else len(result)


def _veronese_rows(result) -> int:
    return result.shape[0] if result.ndim == 2 else 1


# (span name, module, attribute path, counter on the call's result or None).
# Two entries with one span name (the two distributions' samplers) share
# their span.
TRACED = [
    ("cli.main", "cli", "main", None),
    ("serialize.dump", "serialize", "dump", None),
    ("hardpair.build_hard_pair", "hardpair", "build_hard_pair", None),
    ("hardpair.sample", "hardpair", "sample", _rows),
    ("instance.sample_labeled", "instance", "sample_labeled", _rows),
    ("sqlab.answer", "sqlab", "SQOracle.answer", None),
    ("sqlab.sample_projected", "sqlab", "InstanceDistribution.sample_projected", _rows),
    ("sqlab.sample_projected", "sqlab", "NullDistribution.sample_projected", _rows),
    ("sqlab.sample_xy", "sqlab", "InstanceDistribution.sample_xy", _rows),
    ("sqlab.sample_xy", "sqlab", "NullDistribution.sample_xy", _rows),
    ("sqlab.learner_chow", "sqlab", "learner_chow", None),
    ("sqlab.near_orthogonal_set", "sqlab", "near_orthogonal_set", None),
    ("sqlab.distinguishing_experiment", "sqlab", "distinguishing_experiment", None),
    ("ddcore.gauss_legendre_dd", "ddcore", "gauss_legendre_dd", None),
    ("ddcore.comb_moment_discrepancies", "ddcore", "comb_moment_discrepancies", None),
    ("moments.measure_moment", "moments", "measure_moment", None),
    ("moments.quadrature_moment", "moments", "quadrature_moment", None),
    ("moments.chi_square_vs_gaussian", "moments", "chi_square_vs_gaussian", None),
    ("moments.moment_discrepancy_report", "moments", "moment_discrepancy_report", None),
    ("lift.veronese", "lift", "veronese", _veronese_rows),
    ("lift.enumerate_basis", "lift", "enumerate_basis", None),
    ("lift.halfspace_from_ptf", "lift", "halfspace_from_ptf", None),
    ("lift.check_consistency", "lift", "check_consistency", None),
    ("verification.build_verification_report", "verification", "build_verification_report", None),
]


class Tracer:
    """Nested perf_counter spans kept in memory; self time excludes child spans."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list[float]] = []
        self.bindings: list[str] = []

    def wrap(self, name: str, fn, counter):
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children[0]
            if counter is not None:
                span.count += counter(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every TRACED function in the loaded package."""
        modules = {
            name.removeprefix("massart_forge."): mod
            for name, mod in list(sys.modules.items())
            if name == "massart_forge" or name.startswith("massart_forge.")
        }
        for span_name, module, path, counter in TRACED:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original, counter)
            if outer:  # a method: the class attribute is its only binding
                setattr(owner, attr, wrapped)
                self.bindings.append(f"{module}.{path}")
                continue
            for mod_name, mod in sorted(modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self.bindings.append(f"{mod_name}.{key}")

    def to_dict(self) -> dict:
        return {
            name: {
                "calls": s.calls,
                "s": s.total,
                "self_s": s.self_time,
                "count": s.count,
            }
            for name, s in self.spans.items()
        }


def main(argv: list[str]) -> int:
    result_path = argv[0]
    split = argv.index("--")
    trace = "--trace" in argv[1:split]
    cli_argv = argv[split + 1 :]

    from massart_forge import cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    record: dict = {"t_ready": time.perf_counter(), "cpu_ready": time.process_time()}
    code = 0
    if cli_argv:
        code = cli.main(cli_argv)
    record["t_done"] = time.perf_counter()
    record["cpu_s"] = time.process_time() - record.pop("cpu_ready")
    record["code"] = code
    if tracer is not None:
        record["spans"] = tracer.to_dict()
        record["bindings"] = tracer.bindings
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
