"""Fuzzy engineering assessment of measured tests.

Section 5: "we strongly recommend to use fuzzy variables to encode
measurement values as fuzzy logic can describe more than one analysis
parameter; such as if A and B and C, then D is quite close to the limit of
the target device-spec."

:class:`WorstCaseAssessor` is that recommendation as a working instrument:
a Mamdani rule base over three crisp inputs — the measured WCR, the
pattern's peak switching activity and its read-after-write hazard rate —
producing a single *application risk* score with a linguistic label.  It
lets a characterization engineer triage a worst-case database without
reading raw numbers: a test can be "safe" by WCR alone yet flagged because
its activity profile says it sits on the edge of the weakness mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.wcr import worst_case_ratio
from repro.device.parameters import DeviceParameter
from repro.fuzzy.inference import FuzzyInferenceSystem, FuzzyRule
from repro.fuzzy.membership import TrapezoidalMF, TriangularMF
from repro.fuzzy.variables import LinguisticVariable
from repro.patterns.features import extract_features
from repro.patterns.testcase import TestCase

#: Ordered risk labels, mildest first.
RISK_LABELS = ("negligible", "moderate", "severe", "critical")


def _wcr_variable() -> LinguisticVariable:
    return LinguisticVariable(
        "wcr",
        (0.0, 1.2),
        [
            ("safe", TrapezoidalMF(0.0, 0.0, 0.60, 0.75)),
            ("marginal", TriangularMF(0.65, 0.80, 0.95)),
            ("critical", TrapezoidalMF(0.85, 1.00, 1.20, 1.20)),
        ],
    )


def _activity_variable() -> LinguisticVariable:
    return LinguisticVariable(
        "activity",
        (0.0, 1.0),
        [
            ("low", TrapezoidalMF(0.0, 0.0, 0.25, 0.45)),
            ("high", TrapezoidalMF(0.35, 0.60, 1.0, 1.0)),
        ],
    )


def _hazard_variable() -> LinguisticVariable:
    return LinguisticVariable(
        "hazard",
        (0.0, 1.0),
        [
            ("low", TrapezoidalMF(0.0, 0.0, 0.10, 0.25)),
            ("high", TrapezoidalMF(0.15, 0.35, 1.0, 1.0)),
        ],
    )


def _risk_variable() -> LinguisticVariable:
    return LinguisticVariable.uniform_partition(
        "risk", (0.0, 1.0), list(RISK_LABELS)
    )


def _rule_base() -> Tuple[FuzzyRule, ...]:
    return (
        # Hard evidence: the WCR itself.
        FuzzyRule((("wcr", "critical"),), ("risk", "critical")),
        FuzzyRule((("wcr", "marginal"),), ("risk", "severe")),
        # The paper's "if A and B and C then D is quite close to the
        # limit": benign WCR but the full weakness activity signature.
        FuzzyRule(
            (("wcr", "safe"), ("activity", "high"), ("hazard", "high")),
            ("risk", "moderate"),
        ),
        # High activity alone near the margin sharpens the verdict.
        FuzzyRule(
            (("wcr", "marginal"), ("activity", "high")),
            ("risk", "critical"),
            weight=0.8,
        ),
        # Quiet, far from the limit: nothing to see.
        FuzzyRule(
            (("wcr", "safe"), ("activity", "low"), ("hazard", "low")),
            ("risk", "negligible"),
        ),
        FuzzyRule(
            (("wcr", "safe"), ("activity", "low"), ("hazard", "high")),
            ("risk", "negligible"),
            weight=0.7,
        ),
        FuzzyRule(
            (("wcr", "safe"), ("activity", "high"), ("hazard", "low")),
            ("risk", "negligible"),
            weight=0.6,
        ),
    )


@dataclass(frozen=True)
class Assessment:
    """One test's fuzzy risk verdict."""

    risk_score: float
    label: str
    wcr: float
    activity: float
    hazard: float
    rule_activations: Dict[int, float]

    def describe(self) -> str:
        """One-line engineering verdict."""
        return (
            f"risk {self.label} ({self.risk_score:.2f}) — WCR {self.wcr:.3f}, "
            f"activity {self.activity:.2f}, hazard {self.hazard:.2f}"
        )


class WorstCaseAssessor:
    """Fuzzy triage of measured tests against a device parameter."""

    def __init__(self, parameter: DeviceParameter) -> None:
        self.parameter = parameter
        self._risk = _risk_variable()
        self._system = FuzzyInferenceSystem(
            inputs={
                "wcr": _wcr_variable(),
                "activity": _activity_variable(),
                "hazard": _hazard_variable(),
            },
            output=self._risk,
            rules=_rule_base(),
        )

    def assess_crisp(
        self, wcr: float, activity: float, hazard: float
    ) -> Assessment:
        """Assess from already-extracted crisp inputs."""
        crisp = {
            "wcr": min(max(wcr, 0.0), 1.2),
            "activity": min(max(activity, 0.0), 1.0),
            "hazard": min(max(hazard, 0.0), 1.0),
        }
        score = self._system.evaluate(crisp)
        return Assessment(
            risk_score=score,
            label=self._risk.best_term(score),
            wcr=wcr,
            activity=activity,
            hazard=hazard,
            rule_activations=self._system.activations(crisp),
        )

    def assess(self, test: TestCase, measured_value: float) -> Assessment:
        """Assess a test case from its pattern and its measured value."""
        features = test.sequence.features(extract_features)
        return self.assess_crisp(
            wcr=worst_case_ratio(measured_value, self.parameter),
            activity=features["peak_window_activity"],
            hazard=features["read_after_write_rate"],
        )
