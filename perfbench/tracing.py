"""Traced launcher for one `hamca` command, and the table of traced entry points.

Run as a script, it runs one CLI command in this process with every entry
point in ``TARGETS`` wrapped in a span recorder:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS_OUT COMMAND_ID -- run --model H2 ...

The wrappers replace each entry point wherever a ``hamca`` module holds a
reference to it, so calls made through names the CLI imported directly are
traced too.  ``hamca.cli.main(argv)`` is the root span.  Spans are kept in
memory and written to SPANS_OUT as one JSON document when the command
ends; the exit code is the command's own.  Nothing under ``src/`` changes.

Imported as a module (by ``run.py``), it only provides the tables; it does
not import ``hamca``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (span name, module, attribute) for every traced entry point.  A dotted
#: attribute names a method, patched on its class.
TARGETS = [
    ("gaussian.mat_vec", "hamca.gaussian", "mat_vec"),
    ("gaussian.inner_product", "hamca.gaussian", "inner_product"),
    ("gaussian.GaussMatrix.__matmul__", "hamca.gaussian", "GaussMatrix.__matmul__"),
    ("dynamics.step_forward", "hamca.dynamics", "step_forward"),
    ("conservation.q_G", "hamca.conservation", "q_G"),
    ("conservation.q1", "hamca.conservation", "q1"),
    ("conservation.link_counts", "hamca.conservation", "link_counts"),
    ("conservation.commutator", "hamca.conservation", "commutator"),
    ("serialization.TrajectoryWriter.write_state", "hamca.serialization", "TrajectoryWriter.write_state"),
    ("serialization.read_trajectory_stream.next", "hamca.serialization", "read_trajectory_stream"),
    ("serialization.write_conservation_csv", "hamca.serialization", "write_conservation_csv"),
    ("serialization.write_cycle_csv", "hamca.serialization", "write_cycle_csv"),
    ("serialization.write_float_csv", "hamca.serialization", "write_float_csv"),
    ("serialization.load_model", "hamca.serialization", "load_model"),
    ("models.resolve_builtin", "hamca.models", "resolve_builtin"),
    ("models.build_hamiltonian", "hamca.models", "build_hamiltonian"),
    ("ontology.find_period", "hamca.ontology", "find_period"),
    ("ontology.scan_ontological_pairs", "hamca.ontology", "scan_ontological_pairs"),
    ("continuum.spectral_decompose", "hamca.continuum", "spectral_decompose"),
    ("continuum.evolve_float", "hamca.continuum", "evolve_float"),
    ("continuum.ClosedFormSolver.state_at", "hamca.continuum", "ClosedFormSolver.state_at"),
    ("continuum.smooth_partner", "hamca.continuum", "smooth_partner"),
    ("continuum.sinh_residual", "hamca.continuum", "sinh_residual"),
    ("continuum.q1_constancy", "hamca.continuum", "q1_constancy"),
    ("continuum.born_convergence", "hamca.continuum", "born_convergence"),
]

#: root span of every traced command
MAIN_SPAN = "cli.main"

#: layers in reporting order; a span belongs to the layer named before its first dot
MODULES = ["gaussian", "dynamics", "conservation", "serialization", "models", "ontology", "continuum", "cli"]

#: counters the traced child records itself
CHILD_COUNTS = ["gaussian.max_bits", "ontology.steps_searched", "ontology.states_stored"]


def max_bits(psi) -> int:
    """Bit length of the largest integer part of a GaussVector."""
    return max(max(abs(c.re).bit_length(), abs(c.im).bit_length()) for c in psi)


class Tracer:
    """In-memory span recorder for one command.

    A span is ``[name_index, start, end, parent_span_index]`` with times from
    ``time.perf_counter`` and parent -1 for the root.
    """

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts = dict.fromkeys(CHILD_COUNTS, 0)
        self._stack = [-1]
        self._steps = 0
        self._last_state = None

    def wrap(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [index, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _after_step(self, psi) -> None:
        # amplitude size sampled on a log-spaced schedule plus the last state
        self._steps += 1
        self._last_state = psi
        if self._steps & (self._steps - 1) == 0:
            self._note_bits(psi)

    def _note_bits(self, psi) -> None:
        self.counts["gaussian.max_bits"] = max(self.counts["gaussian.max_bits"], max_bits(psi))

    def _after_find_period(self, report) -> None:
        steps = report.period if report.period is not None else report.max_steps
        self.counts["ontology.steps_searched"] += steps
        self.counts["ontology.states_stored"] += steps + 2

    def _wrap_stream(self, read_trajectory_stream):
        # per-state next() on the iterator is the traced unit, not the open
        def reader(path):
            model, l, states = read_trajectory_stream(path)
            nxt = self.wrap("serialization.read_trajectory_stream.next", states.__next__)

            def traced_states():
                while True:
                    try:
                        item = nxt()
                    except StopIteration:
                        return
                    yield item

            return model, l, traced_states()

        return functools.wraps(read_trajectory_stream)(reader)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every target wherever a loaded ``hamca`` module refers to it."""
        import hamca.cli  # noqa: F401  (loads every hamca module)

        modules = [m for n, m in list(sys.modules.items()) if n == "hamca" or n.startswith("hamca.")]
        after = {"dynamics.step_forward": self._after_step, "ontology.find_period": self._after_find_period}
        for span, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(span, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            if attr == "read_trajectory_stream":
                wrapped = self._wrap_stream(original)
            else:
                wrapped = self.wrap(span, original, after.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def document(self, exit_code: int) -> dict:
        if self._last_state is not None:
            self._note_bits(self._last_state)
        return {
            "command_id": self.command_id,
            "exit_code": exit_code,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS_OUT COMMAND_ID -- <hamca arguments>", file=sys.stderr)
        return 2
    spans_out, command_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(command_id)
    tracer.install()
    import hamca.cli

    traced_main = tracer.wrap(MAIN_SPAN, hamca.cli.main)
    code = 2
    try:
        code = traced_main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(spans_out, "w") as fh:
            json.dump(tracer.document(code), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
