"""Domain rules for the simulation-soundness checker.

Importing this package populates :data:`repro.lint.base.REGISTRY`:

- **DET001/DET002** (:mod:`~repro.lint.rules.determinism`) — host
  randomness and unordered-iteration leaks;
- **CLK001** (:mod:`~repro.lint.rules.clock`) — clock-domain hygiene;
- **MET001/MET002** (:mod:`~repro.lint.rules.metrics_rules`) — metric
  catalog membership and hot-path gating;
- **UNIT001** (:mod:`~repro.lint.rules.units_rules`) — unit conversions
  at reporting boundaries only;
- **BKD001/CKP001/EVT001/FLT001/RES001**
  (:mod:`~repro.lint.rules.contracts`) — layer contracts, one table row
  each: which packages may not import, call, write or raise what (raw
  kernel modules, ad-hoc serialisation, hand-rolled JSONL, private
  Generators, untyped raises);
- **CLK002/DET003/ORD001** (:mod:`~repro.lint.rules.dataflow_rules`) —
  project-scoped interprocedural taint rules, produced by the deep pass
  (``repro check --deep``; :mod:`repro.lint.dataflow`).

To add a per-file rule: subclass :class:`repro.lint.base.Rule` in a
module here, decorate it with :func:`repro.lint.base.register`, import
the module below, and add a fixture with one violation to
``tests/data/lint_fixtures`` (project-scoped rules use
``tests/data/dataflow_fixtures`` instead).  To add a layer contract
("package X must not import/call Y"), add a row to
:data:`repro.lint.rules.contracts.CONTRACTS` and a fixture; no new
module or import is needed.
"""

from repro.lint.rules import (
    clock,
    contracts,
    dataflow_rules,
    determinism,
    metrics_rules,
    units_rules,
)

__all__ = [
    "clock",
    "contracts",
    "dataflow_rules",
    "determinism",
    "metrics_rules",
    "units_rules",
]
