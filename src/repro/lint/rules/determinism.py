"""DET001/DET002 — sources of nondeterminism.

The reproduction's claims rest on bit-for-bit re-runnable simulations:
every random draw must flow through :mod:`repro.util.rng` and nothing
order-sensitive may iterate an unordered container.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.asthelpers import (
    dotted_name,
    import_map,
    iter_loop_iterables,
    qualified_call_name,
)
from repro.lint.base import ModuleContext, RawFinding, Rule, register
from repro.lint.rules.clock import SIM_PACKAGES

#: modules allowed to touch host randomness/clocks directly: the rng
#: plumbing itself and the observability layer (which measures real
#: wall time by design)
EXEMPT_PACKAGES = ("repro.util.rng", "repro.obs", "repro.lint")

#: numpy.random functions that mutate the hidden global RandomState
_NP_GLOBAL_STATE = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "bytes",
    "uniform", "normal", "standard_normal", "poisson", "binomial",
    "exponential", "geometric", "zipf", "pareto",
})


def _is_unseeded_default_rng(call: ast.Call, qual: str) -> bool:
    if not qual.endswith("random.default_rng"):
        return False
    if call.args or call.keywords:
        # seeded (or generator-threaded) construction is the sanctioned
        # path's job, but it is at least deterministic
        return False
    return True


@register
class DET001(Rule):
    """Host randomness/clock access outside the sanctioned modules.

    Every figure in the reproduction must be re-runnable bit-for-bit:
    a stray ``random.random()`` or unseeded Generator makes the run
    depend on process state, and a host ``time`` import in analysis
    code smuggles machine speed into what should be a pure simulation.
    The sanctioned path is one seed, normalised once, threaded
    explicitly.
    """

    id = "DET001"
    description = (
        "no `random`/`time`/unseeded `np.random` outside repro.util.rng "
        "and repro.obs — thread seeds through repro.util.rng.normalise"
    )
    example_violation = (
        "import random\n"
        "jitter = random.random()          # process-state dependent\n"
        "gen = np.random.default_rng()     # unseeded"
    )
    example_fix = (
        "from repro.util.rng import resolve_rng\n"
        "gen = resolve_rng(seed)           # one seed, explicit, replayable\n"
        "jitter = gen.random()"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if ctx.in_package(*EXEMPT_PACKAGES):
            return
        time_is_clk001s = ctx.in_package(*SIM_PACKAGES)
        imports = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".", 1)[0]
                    if top == "random":
                        yield RawFinding(
                            node.lineno, node.col_offset,
                            "import of the stdlib `random` module; draw through "
                            "repro.util.rng instead",
                        )
                    elif top == "time" and not time_is_clk001s:
                        yield RawFinding(
                            node.lineno, node.col_offset,
                            "import of the host `time` module outside repro.obs; "
                            "simulated durations come from the cost models",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                top = node.module.split(".", 1)[0]
                if top == "random":
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        "import from the stdlib `random` module; draw through "
                        "repro.util.rng instead",
                    )
                elif top == "time" and not time_is_clk001s:
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        "import from the host `time` module outside repro.obs; "
                        "simulated durations come from the cost models",
                    )
            elif isinstance(node, ast.Call):
                qual = qualified_call_name(node, imports)
                if qual is None:
                    continue
                if _is_unseeded_default_rng(node, qual):
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        "unseeded numpy Generator; pass a seed or normalise "
                        "through repro.util.rng",
                    )
                elif (
                    qual.startswith(("numpy.random.", "np.random."))
                    and qual.rsplit(".", 1)[-1] in _NP_GLOBAL_STATE
                ):
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        "legacy numpy global-state RNG call "
                        f"`{dotted_name(node.func)}`; use a Generator from "
                        "repro.util.rng",
                    )


@register
class DET002(Rule):
    """Iteration order of unordered containers leaking into schedules.

    Python sets hash-order their elements, and that order varies with
    insertion history (and, for strings, the interpreter's hash seed).
    A ``for`` loop over a set that schedules events, accumulates
    floats, or appends to a queue bakes that accidental order into
    results.  This syntactic rule flags the loop form itself; its
    interprocedural sibling ORD001 tracks the order through helper
    calls into real sinks.
    """

    id = "DET002"
    description = (
        "no iteration over set()/frozenset()/dict.keys() whose order can "
        "leak into simulated schedules — wrap in sorted(...)"
    )
    example_violation = (
        "for kind in {'cpu', 'gpu'} - dead:\n"
        "    engine.schedule(t, steps[kind])   # hash-order scheduling"
    )
    example_fix = (
        "for kind in sorted({'cpu', 'gpu'} - dead):\n"
        "    engine.schedule(t, steps[kind])   # deterministic order"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for it in iter_loop_iterables(ctx.tree):
            if isinstance(it, ast.Set):
                yield RawFinding(
                    it.lineno, it.col_offset,
                    "iteration over a set literal has no defined order; "
                    "wrap in sorted(...)",
                )
            elif isinstance(it, ast.Call):
                func = it.func
                if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                    yield RawFinding(
                        it.lineno, it.col_offset,
                        f"iteration over {func.id}(...) has no defined order; "
                        "wrap in sorted(...)",
                    )
                elif isinstance(func, ast.Attribute) and func.attr == "keys":
                    yield RawFinding(
                        it.lineno, it.col_offset,
                        "iteration over .keys(); iterate the mapping itself "
                        "or wrap in sorted(...) for an explicit order",
                    )
