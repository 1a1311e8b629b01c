"""The layered-architecture baseline (paper, Section 4).

The paper reports attempting to build active capabilities **on top of**
two closed commercial OODBMSs (O2 and ObjectStore) and aborting the
attempt.  This package reproduces that experiment quantitatively:

* :class:`ClosedOODB` simulates a closed commercial OODBMS with exactly
  the limitations the paper encountered — flat transactions only, no
  method-event trapping, no access to transaction-manager information,
  persistence by reachability without an explicit delete, and a license
  manager that objects to forked transactions.
* :mod:`repro.layered.wrappers` builds the *parallel class hierarchy* of
  active wrapper classes the layered approach forces on applications.
* :class:`LayeredActiveDBMS` is the rule layer on top: serial rule
  execution with immediate/deferred coupling only, state-change detection
  by polling, and no detached or causally dependent modes.

Benchmark E2 runs the same rule workload against this baseline and the
integrated :class:`~repro.core.engine.ReachEngine`.
"""

from repro.layered.closed_oodb import ClosedOODB, ClosedTransaction
from repro.layered.wrappers import make_active_class
from repro.layered.layered_adbms import LayeredActiveDBMS, LayeredRule

__all__ = [
    "ClosedOODB",
    "ClosedTransaction",
    "make_active_class",
    "LayeredActiveDBMS",
    "LayeredRule",
]
