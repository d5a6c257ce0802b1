"""Mutation harness: the full run kills every applicable mutant across
at least MIN_CLASSES fault classes, and the report logic is honest about
survivors, skips, and clean failures."""

from __future__ import annotations

import pytest

from repro.analysis.mutate import (
    FAULT_CLASSES,
    MIN_CLASSES,
    MUTATION_CONFIGS,
    FaultClass,
    MutantResult,
    MutationReport,
    run_mutation_harness,
)


@pytest.fixture(scope="module")
def full_report():
    return run_mutation_harness()


class TestFullHarness:
    def test_zero_survivors_and_enough_classes(self, full_report):
        assert full_report.ok, full_report.as_dict()
        assert full_report.clean_failures == []
        assert full_report.survivors == []
        assert full_report.killed == full_report.applied
        assert len(full_report.classes_applied) >= MIN_CLASSES
        # "auto" runs only C2R, so the gate names both kernels explicitly
        assert {r.algorithm for r in full_report.mutants} == {"c2r", "r2c"}

    def test_every_fault_class_applies_somewhere(self, full_report):
        # the taxonomy carries no dead weight: each class anchors in at
        # least one of the four kernel variants
        assert set(full_report.classes_applied) == {
            fc.name for fc in FAULT_CLASSES
        }

    def test_as_dict_is_report_shaped(self, full_report):
        d = full_report.as_dict()
        assert d["ok"] is True
        assert d["applied"] == full_report.applied
        assert d["killed"] == d["applied"]
        assert d["survivors"] == [] and d["clean_failures"] == []
        assert d["min_classes"] == MIN_CLASSES


class TestHarnessMechanics:
    def test_inapplicable_fault_class_is_skipped(self):
        never = FaultClass("no-anchor", "matches nothing", lambda src: None)
        rep = run_mutation_harness(
            configs=[MUTATION_CONFIGS[0]], fault_classes=(never,)
        )
        assert rep.applied == 0
        assert rep.clean_failures == []
        # zero classes applied is below the bar, so the run is not ok
        assert not rep.ok

    def test_single_fault_class_is_killed(self):
        rep = run_mutation_harness(
            configs=[MUTATION_CONFIGS[0]], fault_classes=(FAULT_CLASSES[0],)
        )
        assert rep.applied == 1 and rep.killed == 1
        assert rep.mutants[0].fault == FAULT_CLASSES[0].name
        assert rep.mutants[0].failed_checks

    def test_equivalent_mutant_survives_and_fails_the_run(self):
        # a "fault" that does not change behaviour must be reported as a
        # survivor — this is the property that makes 0-survivors meaningful
        noop = FaultClass(
            "whitespace-only",
            "adds a trailing comment (semantically equivalent)",
            lambda src: src + "\n/* mutant */\n",
        )
        rep = run_mutation_harness(
            configs=[MUTATION_CONFIGS[0]], fault_classes=(noop,)
        )
        assert rep.applied == 1
        assert [r.fault for r in rep.survivors] == ["whitespace-only"]
        assert not rep.ok

    def test_progress_callback_reports_verdicts(self):
        lines = []
        run_mutation_harness(
            configs=[MUTATION_CONFIGS[0]],
            fault_classes=(FAULT_CLASSES[0],),
            progress=lines.append,
        )
        assert len(lines) == 1 and "killed" in lines[0]


class TestReportLogic:
    def _mutant(self, fault, killed):
        return MutantResult(
            fault=fault, m=12, n=18, order="C", algorithm="c2r",
            itemsize=8, killed=killed,
        )

    def test_ok_requires_min_classes(self):
        rep = MutationReport(
            mutants=[self._mutant(f"f{i}", True) for i in range(MIN_CLASSES)]
        )
        assert rep.ok
        rep = MutationReport(
            mutants=[
                self._mutant(f"f{i}", True) for i in range(MIN_CLASSES - 1)
            ]
        )
        assert not rep.ok

    def test_ok_fails_on_survivor_or_clean_failure(self):
        mutants = [self._mutant(f"f{i}", True) for i in range(MIN_CLASSES)]
        rep = MutationReport(mutants=mutants + [self._mutant("weak", False)])
        assert not rep.ok
        rep = MutationReport(
            mutants=mutants, clean_failures=[{"m": 12, "n": 18}]
        )
        assert not rep.ok

    def test_classes_applied_deduplicates_preserving_order(self):
        rep = MutationReport(
            mutants=[
                self._mutant("a", True),
                self._mutant("b", True),
                self._mutant("a", True),
            ]
        )
        assert rep.classes_applied == ["a", "b"]
