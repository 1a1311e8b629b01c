"""F1 — Figure 1: the Open OODB architecture.

Boots a full database and regenerates the figure's inventory: the policy
managers plugged onto the meta-architecture ("software bus"), and the
support modules (address spaces, translation, communications, data
dictionary).  Asserts that every module the figure names — plus the two
the paper says can be added (a Rule PM and nested-transaction support) —
is present.  The benchmark times a cold boot of the whole architecture.
"""

import pytest

from repro import ReachEngine


EXPECTED_POLICY_MANAGERS = [
    "Persistence PM",
    "Transaction PM",
    "Change PM",
    "Indexing PM",
    "Query PM",
    "Rule PM",          # the active-database extension of Section 6
]

EXPECTED_SUPPORT_MODULES = [
    "active-ASM",       # at least one ASM must be active (Section 5)
    "passive-ASM",      # EXODUS-like storage
    "data-dictionary",
    "translation",
    "communications",
]


def test_figure1_reproduction(benchmark, tmp_path, results_report):
    db = ReachEngine(directory=str(tmp_path / "f1"))
    inventory = db.architecture_inventory()
    managers = inventory["policy_managers"]
    support = inventory["support_modules"]

    for expected in EXPECTED_POLICY_MANAGERS:
        assert any(expected in entry for entry in managers), expected
    for expected in EXPECTED_SUPPORT_MODULES:
        assert any(expected in entry for entry in support), expected
    # Nested transactions: the capability Open OODB lacked and REACH adds.
    assert any("nested" in entry for entry in managers)
    db.close()

    lines = ["Figure 1: Open OODB architecture (as booted).",
             "",
             "Application Programming Interface",
             "Meta Architecture Support (Sentries)",
             "",
             "policy managers on the software bus:"]
    lines += [f"  [{entry}]" for entry in managers]
    lines += ["", "support modules:"]
    lines += [f"  ({entry})" for entry in support]
    text = results_report("F1_architecture", lines)
    print("\n" + text)

    def boot_and_close():
        import tempfile
        instance = ReachEngine(directory=tempfile.mkdtemp(prefix="f1b-"))
        instance.close()

    benchmark(boot_and_close)
