"""Layer contracts: one table row per "package X must not import/call Y" rule.

Each :class:`Contract` row names the packages it polices, the modules
inside them it sanctions, and what those packages may not do: import
banned modules, call banned functions (``".attr"`` entries ban a
method call on any receiver), ``.write(...)`` the output of a banned
encoder, or raise exceptions outside an allowed set.  One checker walks
each module once and applies every row whose packages match; each row
is registered as its own :class:`~repro.lint.base.Rule` subclass whose
docstring is the row's rationale, so ids, severities, ``noqa``
suppressions and ``repro check --explain`` work as for any other rule.

Imports are resolved before matching: relative imports against the
module's package, and ``from P import name`` also counts as an import
of ``P.name`` (so ``from repro.kernels import esc`` imports the raw
module).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

from repro.lint.asthelpers import import_map, qualified_call_name
from repro.lint.base import ModuleContext, RawFinding, Rule, register
from repro.util import errors as _errors

#: constructors that mint a numpy Generator directly
_GENERATOR_FACTORIES = (
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
)

#: every exception class the taxonomy defines (computed, so a new
#: taxonomy error is allowed the moment it lands in repro.util.errors),
#: plus the protocol-mandated builtins (module ``__getattr__`` must
#: raise AttributeError by contract)
_TAXONOMY = tuple(sorted(
    name
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
)) + ("AttributeError", "NotImplementedError")


@dataclass(frozen=True)
class Contract:
    """One layer contract.  ``messages`` holds a ``{name}`` template per
    violation kind the row bans: ``import`` / ``from`` (banned module
    imported, or imported from), ``call``, ``write`` and ``raise``;
    ``description`` may use ``{packages}``."""

    id: str
    packages: tuple[str, ...]
    description: str
    rationale: str
    example_violation: str
    example_fix: str
    messages: Mapping[str, str]
    sanctioned: tuple[str, ...] = ()
    imports: tuple[str, ...] = ()
    calls: tuple[str, ...] = ()
    write_encoders: tuple[str, ...] = ()
    raises_only: tuple[str, ...] | None = None

    def violations(
        self, node: ast.AST, imports: dict[str, str], module: str, is_package: bool
    ) -> Iterator[RawFinding]:
        """Each way ``node`` breaks this contract."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _within(alias.name, self.imports):
                    yield self._finding(node, "import", alias.name)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, module, is_package)
            if _within(source, self.imports):
                yield self._finding(node, "from", source)
            else:
                for alias in node.names:
                    if _within(f"{source}.{alias.name}", self.imports):
                        yield self._finding(node, "import", f"{source}.{alias.name}")
        elif isinstance(node, ast.Call):
            qual = qualified_call_name(node, imports)
            method = "." + node.func.attr if isinstance(node.func, ast.Attribute) else ""
            if qual in self.calls or method in self.calls:
                yield self._finding(node, "call", qual or method)
            elif method == ".write" and any(
                isinstance(sub, ast.Call)
                and qualified_call_name(sub, imports) in self.write_encoders
                for arg in node.args
                for sub in ast.walk(arg)
            ):
                yield self._finding(node, "write", method)
        elif isinstance(node, ast.Raise) and self.raises_only is not None:
            name = _raised_name(node)
            if name is not None and name not in self.raises_only:
                yield self._finding(node, "raise", name)

    def _finding(self, node: ast.stmt | ast.expr, kind: str, name: str) -> RawFinding:
        return RawFinding(node.lineno, node.col_offset, self.messages[kind].format(name=name))


def _within(name: str, prefixes: tuple[str, ...]) -> bool:
    """Whether a dotted name is (or lies under) any of the prefixes."""
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def _absolute(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute module a ``from ... import`` in ``module`` reads from."""
    if not node.level:
        return node.module or ""
    parts = module.split(".")
    base = parts[: max(len(parts) - node.level + is_package, 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _raised_name(node: ast.Raise) -> str | None:
    """The class name a ``raise`` statement constructs, or None for
    the shapes we cannot and need not type: re-raises (``raise`` /
    ``raise exc``) and snake_case factory calls (``raise _fail(...)``,
    whose factory is itself linted at its own raise-free definition)."""
    exc = node.exc
    if exc is None or isinstance(exc, ast.Name):
        return None
    name = None
    if isinstance(exc, ast.Call):
        func = exc.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
    if name is not None and not name[:1].isupper():
        return None  # PEP8 CapWords marks a class; this is a helper call
    return name


CONTRACTS: tuple[Contract, ...] = (
    Contract(
        id="BKD001",
        packages=("repro.core", "repro.hetero"),
        imports=("repro.kernels.hash_acc", "repro.kernels.spa", "repro.kernels.esc"),
        messages={
            "import": "direct import of raw kernel module `{name}` above the "
            "backend registry; dispatch through repro.kernels instead",
            "from": "direct import from raw kernel module `{name}` above the "
            "backend registry; dispatch through repro.kernels instead",
        },
        description=(
            "{packages} must not import the raw kernel "
            "implementation modules (repro.kernels.hash_acc / .spa / .esc) "
            "directly; dispatch through the repro.kernels entry points so "
            "the repro.backends registry controls which implementation runs"
        ),
        rationale="""Direct raw-kernel import above the backend registry.

        ``repro.core`` / ``repro.hetero`` code that imports
        ``repro.kernels.hash_acc``, ``repro.kernels.spa``, or
        ``repro.kernels.esc`` bypasses backend selection: the registry can
        no longer substitute the reference or JIT implementation, the
        ``backend`` recorded in fingerprints/bench rows stops describing
        what actually ran, and cross-backend checkpoint refusal loses its
        meaning.  Dispatch through :mod:`repro.kernels` (or resolve a
        :class:`~repro.backends.registry.Backend` explicitly).
        """,
        example_violation=(
            "# in repro/hetero/...\n"
            "from repro.kernels.esc import esc_multiply   # pins one impl\n"
            "out = esc_multiply(a, b)"
        ),
        example_fix=(
            "from repro.kernels import esc_multiply       # registry-dispatched\n"
            "out = esc_multiply(a, b, backend=spec)"
        ),
    ),
    Contract(
        id="CKP001",
        packages=("repro.jobs",),
        sanctioned=("repro.jobs.snapshot",),
        imports=("pickle", "cPickle", "dill", "marshal", "shelve"),
        calls=(
            "numpy.save", "numpy.savez", "numpy.savez_compressed",
            "numpy.load", "numpy.fromfile", ".tofile",
        ),
        messages={
            "import": "import of object-serialisation module `{name}` in "
            "repro.jobs; checkpoint I/O must go through repro.jobs.snapshot",
            "from": "import from `{name}` in repro.jobs; checkpoint I/O must "
            "go through repro.jobs.snapshot",
            "call": "direct array persistence `{name}` in repro.jobs bypasses "
            "the versioned checkpoint format; write and read checkpoints only "
            "via repro.jobs.snapshot",
        },
        description=(
            "checkpoint state in {packages} must be serialised only through "
            "the versioned repro.jobs.snapshot format (schema tag, sha256 "
            "digests, atomic replace) — no pickle/marshal/shelve and no "
            "direct numpy save/load elsewhere in the package"
        ),
        rationale="""Ad-hoc state serialisation inside ``repro.jobs``.

        A checkpoint that a newer library version cannot read is data
        loss; a checkpoint that deserialises arbitrary objects (pickle) is
        a liability.  The ``repro.jobs.snapshot`` format exists to carry a
        schema tag, content digests, and an atomic-replace write protocol
        — every byte of durable job state must go through it so resume
        paths have exactly one format to validate.
        """,
        example_violation=(
            "# in repro/jobs/...\n"
            "with open(path, 'wb') as fh:\n"
            "    pickle.dump(state, fh)        # unversioned, unverifiable"
        ),
        example_fix=(
            "from repro.jobs.snapshot import write_snapshot\n"
            "write_snapshot(path, state)       # schema tag + digests + atomic"
        ),
    ),
    Contract(
        id="EVT001",
        packages=("repro.jobs", "repro.faults", "repro.hetero", "repro.core",
                  "repro.hardware", "repro.service", "repro.resilience"),
        # CKP001's versioned checkpoint I/O legitimately encodes JSON
        # headers inside the snapshot format
        sanctioned=("repro.jobs.snapshot",),
        calls=("json.dump",),
        write_encoders=("json.dumps",),
        messages={
            "call": "direct json.dump(...) in instrumented code; emit "
            "structured records through repro.obs.events.EVENTS "
            "(or export snapshots via repro.obs.export)",
            "write": "hand-rolled JSONL write (`.write(json.dumps(...))`) in "
            "instrumented code; emit structured records through "
            "repro.obs.events.EVENTS so they carry the schema tag, "
            "seq numbering, and clock stamps",
        },
        description=(
            "run events in instrumented packages ({packages}) must be emitted "
            "through repro.obs.events — no direct json.dump(...) and no "
            "fh.write(json.dumps(...)) outside the sanctioned snapshot module"
        ),
        rationale="""Hand-rolled JSON/JSONL writes in instrumented code.

        The event log's guarantees — strictly increasing ``seq`` numbers,
        one schema, sorted-key compact records, a detectable truncation —
        only hold if every record flows through
        :data:`repro.obs.events.EVENTS`.  A hand-rolled ``json.dump`` in
        an instrumented package produces a second, unversioned stream the
        run-table aggregator cannot ingest and the header cannot vouch
        for.
        """,
        example_violation=(
            "# in repro/jobs/...\n"
            "fh.write(json.dumps({'event': 'retry', 'unit': i}) + '\\n')"
        ),
        example_fix=(
            "from repro.obs.events import EVENTS\n"
            "if EVENTS.enabled:\n"
            "    EVENTS.emit('unit_retry', unit=i)"
        ),
    ),
    Contract(
        id="FLT001",
        packages=("repro.faults",),
        calls=_GENERATOR_FACTORIES,
        messages={
            "call": "direct Generator construction `{name}` in the faults "
            "package; normalise the spec seed through "
            "repro.util.rng.resolve_rng so the fault schedule replays from "
            "one seed",
        },
        description=(
            "no direct numpy Generator construction in {packages} — even "
            "seeded; derive the injector's generator through "
            "repro.util.rng.resolve_rng so one seed replays the whole "
            "fault schedule"
        ),
        rationale="""Direct numpy Generator construction inside ``repro.faults``.

        Chaos runs must be replayable: a crash found under fault schedule
        seed 7 has to reproduce under seed 7, byte for byte.  That only
        holds if every probabilistic fault draw flows from the injector's
        single resolved generator — a second, locally constructed
        Generator (even seeded) forks the stream and silently decouples
        the replayed schedule from the recorded one.
        """,
        example_violation=(
            "# in repro/faults/...\n"
            "gen = np.random.default_rng(self.spec.seed)   # forks the stream"
        ),
        example_fix=(
            "from repro.util.rng import resolve_rng\n"
            "gen = resolve_rng(self.spec.seed)  # the one sanctioned stream"
        ),
    ),
    Contract(
        id="RES001",
        packages=("repro.resilience",),
        calls=_GENERATOR_FACTORIES,
        raises_only=_TAXONOMY,
        messages={
            "raise": "`raise {name}(...)` in the resilience layer; raise a "
            "repro.util.errors taxonomy type so the service can route the "
            "failure (quarantine / retry / fail)",
            "call": "direct Generator construction `{name}` in the resilience "
            "layer; derive it through repro.util.rng.resolve_rng so verifier "
            "sampling and breaker verdicts replay from one seed",
        },
        description=(
            "{packages} must draw randomness only via repro.util.rng "
            "and raise only repro.util.errors taxonomy types, so verdicts "
            "replay bit-for-bit and the service can route every failure"
        ),
        rationale="""Foreign randomness or untyped raises inside ``repro.resilience``.

        Resilience verdicts are part of the deterministic replay surface:
        the verifier's sampled row blocks, the breaker's trip points, and
        the shed decisions must be identical across same-seed runs, so all
        randomness must flow through ``repro.util.rng``.  And because the
        service routes failures by type — :class:`CorruptResultError`
        quarantines, :class:`FaultError` retries or fails, anything else
        is a bug — the layer may only raise taxonomy errors from
        ``repro.util.errors``.
        """,
        example_violation=(
            "# in repro/resilience/...\n"
            "gen = np.random.default_rng(0)       # forks the replay stream\n"
            "raise ValueError('corrupt result')   # unroutable, escapes quarantine"
        ),
        example_fix=(
            "from repro.util.rng import resolve_rng\n"
            "from repro.util.errors import CorruptResultError\n"
            "gen = resolve_rng(spec.seed)\n"
            "raise CorruptResultError('corrupt result', check='value-mismatch')"
        ),
    ),
)


@lru_cache(maxsize=1)
def _scan(tree: ast.Module, module: str, is_package: bool) -> dict[str, list[RawFinding]]:
    """Every contract finding in one module, by rule id: one walk shared by
    all rows (the engine runs every rule on a file before the next)."""
    rows = [
        c for c in CONTRACTS
        if _within(module, c.packages) and not _within(module, c.sanctioned)
    ]
    found: dict[str, list[RawFinding]] = {c.id: [] for c in rows}
    if not rows:
        return found
    imports = import_map(tree)
    for node in ast.walk(tree):
        for row in rows:
            found[row.id].extend(row.violations(node, imports, module, is_package))
    return found


for _contract in CONTRACTS:

    @register
    class _ContractRule(Rule):
        __doc__ = _contract.rationale
        id = _contract.id
        description = _contract.description.format(packages=" / ".join(_contract.packages))
        example_violation = _contract.example_violation
        example_fix = _contract.example_fix

        def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
            is_package = ctx.path.name == "__init__.py"
            return iter(_scan(ctx.tree, ctx.module, is_package).get(self.id, ()))

    _ContractRule.__name__ = _ContractRule.__qualname__ = _contract.id
