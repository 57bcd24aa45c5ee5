"""CLK001 — clock-domain hygiene.

The simulator maintains two clocks (DESIGN.md): the **simulated**
platform clock that the paper's figures report, and the **host wall
clock** the observability layer measures.  Mixing them corrupts both:
a `perf_counter()` charged to the simulated clock makes results
machine-dependent, and a simulated duration written into a span's wall
fields breaks the flame-chart's arithmetic.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.asthelpers import import_map, qualified_call_name
from repro.lint.base import ModuleContext, RawFinding, Rule, register

#: packages where only the simulated clock may advance time (DET001
#: leaves ``time`` to CLK001 here to avoid double reports)
SIM_PACKAGES = (
    "repro.core",
    "repro.kernels",
    "repro.costmodel",
    "repro.hetero",
    "repro.hardware",
    "repro.service",
    "repro.resilience",
)

#: host wall-clock entry points
_HOST_CLOCK_CALLS = frozenset({
    "time.time", "time.perf_counter", "time.monotonic",
    "time.process_time", "time.thread_time", "time.time_ns",
    "time.perf_counter_ns", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: attributes that carry simulated-clock values
_SIM_ATTRS = frozenset({"sim_start", "sim_end", "sim_duration_s"})

#: span fields that must only ever hold host wall-clock values
_WALL_FIELDS = frozenset({"wall_start", "wall_end"})


def _mentions_sim_value(expr: ast.expr) -> bool:
    """Whether an expression reads an identifiable simulated-clock
    value (a ``sim_*`` span attribute or a trace ``makespan()``)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr in _SIM_ATTRS:
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "makespan"
        ):
            return True
    return False


@register
class CLK001(Rule):
    """Host clocks in simulation code; sim values in wall-clock fields.

    The repo runs two clocks (DESIGN.md): the simulated platform clock
    the paper's figures report, and the host wall clock the
    observability layer measures.  A ``perf_counter()`` charged into
    simulation code makes "modelled" times machine-dependent; a
    simulated duration written into a span's ``wall_*`` field corrupts
    the flame chart.  This rule polices both directions syntactically,
    per file; CLK002 extends it across function boundaries.
    """

    id = "CLK001"
    description = (
        "no host wall-clock calls in core/kernels/costmodel/hetero/"
        "hardware/service/resilience; simulated-clock values must not flow "
        "into host-clock span fields"
    )
    example_violation = (
        "# in repro/hetero/...\n"
        "import time\n"
        "start = time.perf_counter()       # host clock in simulation code"
    )
    example_fix = (
        "start = device.clock              # the simulated clock\n"
        "device.busy('III', label, cost_model_seconds)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        in_sim = ctx.in_package(*SIM_PACKAGES)
        imports = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if in_sim and isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] in ("time", "datetime"):
                        yield RawFinding(
                            node.lineno, node.col_offset,
                            f"host clock module `{alias.name}` imported in "
                            "simulation code; durations must come from the "
                            "cost models / simulated clock",
                        )
            elif in_sim and isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".", 1)[0] in ("time", "datetime"):
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        f"host clock module `{node.module}` imported in "
                        "simulation code; durations must come from the "
                        "cost models / simulated clock",
                    )
            elif isinstance(node, ast.Call):
                qual = qualified_call_name(node, imports)
                if in_sim and qual in _HOST_CLOCK_CALLS:
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        f"host wall-clock call `{qual}` in simulation code; "
                        "charge time to the simulated clock instead",
                    )
                # sim values into wall_* keyword args (any package)
                for kw in node.keywords:
                    if kw.arg in _WALL_FIELDS and _mentions_sim_value(kw.value):
                        yield RawFinding(
                            kw.value.lineno, kw.value.col_offset,
                            f"simulated-clock value passed as `{kw.arg}=`; "
                            "wall fields take host perf_counter values only "
                            "(use Span.set_sim for the simulated interval)",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _WALL_FIELDS
                        and _mentions_sim_value(node.value)
                    ):
                        yield RawFinding(
                            node.lineno, node.col_offset,
                            f"simulated-clock value assigned to `.{target.attr}`; "
                            "wall fields take host perf_counter values only "
                            "(use Span.set_sim for the simulated interval)",
                        )
