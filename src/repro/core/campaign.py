"""Full characterization campaign: the one-call deliverable.

Runs everything the paper's evaluation section reports — the Table-1
technique comparison, the multiple-trip-point drift analysis, the fig. 8
shmoo overlay — plus the engineering closure steps of section 1: a final
spec proposal and the worst-case test database with exportable patterns.
The result renders as a single markdown report and can be saved as a
self-contained directory (report + database JSON + ``.pat`` patterns).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis.drift import DriftAnalysis
from repro.analysis.reporting import Table1Report
from repro.analysis.spec_setting import SpecProposal, propose_spec
from repro.ate.shmoo import (
    ShmooPlot,
    merge_overlays,
    run_shmoo_unit,
    shmoo_overlay_units,
)
from repro.core.characterizer import DeviceCharacterizer
from repro.core.database import WorstCaseDatabase
from repro.core.learning import LearningConfig
from repro.core.lot import _resolve_checkpoint
from repro.core.optimization import OptimizationConfig
from repro.farm.executor import make_executor
from repro.obs.events import WCRClassified
from repro.obs.runtime import OBS
from repro.obs.timing import span
from repro.patterns.conditions import NOMINAL_CONDITION, TestCondition
from repro.patterns.random_gen import RandomTestGenerator


#: The worst-case database's filename inside a saved campaign directory.
DATABASE_FILENAME = "worst_case_db.json"


@dataclass
class CampaignReport:
    """Everything a characterization campaign produced."""

    table1: Table1Report
    drift: DriftAnalysis
    spec_proposal: SpecProposal
    shmoo: ShmooPlot
    database: WorstCaseDatabase
    total_measurements: int

    def to_markdown(self) -> str:
        """Render the whole campaign as one markdown document."""
        parameter = self.table1.parameter
        sections: List[str] = [
            f"# Characterization campaign report — {parameter.name}",
            "",
            "## Technique comparison (Table 1)",
            "",
            self.table1.to_markdown(),
            "",
            "## Parameter variation (multiple trip point analysis)",
            "",
            "```",
            self.drift.describe(),
            "```",
            "",
            "## Final specification proposal",
            "",
            "```",
            self.spec_proposal.describe(),
            "```",
            "",
            "## Shmoo overlay",
            "",
            "```",
            self.shmoo.render(f"{parameter.name} ({parameter.unit})"),
            "```",
            "",
            "## Worst-case test database",
            "",
            f"{len(self.database)} parametric record(s), "
            f"{self.database.failure_count} functional failure(s).",
            "",
        ]
        for record in self.database.ranked():
            sections.append(
                f"- `{record.test.name}`: {record.measured_value:.3f} "
                f"{parameter.unit} (WCR {record.wcr:.3f}, "
                f"{record.wcr_class.value})"
            )
        sections.append("")
        sections.append(
            f"Total tester measurements: {self.total_measurements}."
        )
        return "\n".join(sections)

    def save(self, directory: Union[str, Path]) -> Path:
        """Write the campaign as a directory: report, database, patterns."""
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        (target / "report.md").write_text(self.to_markdown())
        self.database.export_json(target / DATABASE_FILENAME)
        self.database.export_patterns(target / "patterns")
        return target


def _emit_wcr_classifications(database: WorstCaseDatabase) -> None:
    """One ``wcr_classified`` event per worst-case database record."""
    for record in database.ranked():
        wcr_class = (
            record.wcr_class.value if record.wcr_class is not None else "unknown"
        )
        OBS.metrics.counter("wcr.classified").inc(label=wcr_class)
        OBS.bus.emit(
            WCRClassified(
                test_name=record.test.name or "unnamed",
                technique=record.technique,
                wcr=record.wcr,
                wcr_class=wcr_class,
                value=record.measured_value,
            )
        )
    for record in database.failures():
        OBS.metrics.counter("wcr.classified").inc(label="functional_fail")
        OBS.bus.emit(
            WCRClassified(
                test_name=record.test.name or "unnamed",
                technique=record.technique,
                wcr=record.wcr,
                wcr_class="functional_fail",
                value=record.measured_value,
            )
        )


def run_campaign(
    characterizer: DeviceCharacterizer,
    march_name: str = "march_c-",
    random_tests: int = 300,
    shmoo_tests: int = 20,
    vdd_values: Sequence[float] = (1.5, 1.65, 1.8, 1.95, 2.1),
    learning_config: Optional[LearningConfig] = None,
    optimization_config: Optional[OptimizationConfig] = None,
    report_condition: TestCondition = NOMINAL_CONDITION,
    spec_k_sigma: float = 1.0,
    spec_guard_band: float = 0.25,
    workers: Optional[int] = None,
    executor=None,
    checkpoint=None,
) -> CampaignReport:
    """Run the full campaign on a characterizer and assemble the report.

    The shmoo overlays a fresh random sample *plus* the discovered
    worst-case test, so the report shows the outlier boundary the CI flow
    found against the ordinary population.

    The learning and GA phases are adaptive — each measurement decides
    the next — so they stay on the characterizer's single tester.  With
    ``workers=``/``executor=`` the embarrassingly parallel shmoo overlay
    is sharded one work unit per test across a :mod:`repro.farm`
    executor instead (fresh insertion and derived noise seed per test;
    deterministic for any worker count).  ``checkpoint`` lets an
    interrupted farm overlay resume.
    """
    before = characterizer.ate.measurement_count
    with span("campaign"):
        table1, dsv, optimization = characterizer._table1(
            march_name,
            random_tests,
            learning_config,
            optimization_config,
            report_condition,
        )
        drift = DriftAnalysis.from_dsv(dsv)
        if OBS.enabled:
            _emit_wcr_classifications(optimization.database)

        # Spec proposal from everything measured at the report condition,
        # anchored by the discovered worst case.
        observed = list(dsv.values())
        nnga_row = table1.rows[-1]
        observed.append(nnga_row.value)
        spec_proposal = propose_spec(
            characterizer.ate.chip.parameter,
            observed,
            k_sigma=spec_k_sigma,
            guard_band=spec_guard_band,
        )

        shmoo_sample = [
            t.with_condition(report_condition)
            for t in RandomTestGenerator(seed=characterizer.seed + 1).batch(
                shmoo_tests
            )
        ]
        shmoo_sample.append(
            optimization.best_test.with_condition(report_condition).renamed(
                "nnga_worst"
            )
        )
        farm_measurements = 0
        if workers is None and executor is None and checkpoint is None:
            shmoo = characterizer.shmoo_overlay(shmoo_sample, vdd_values)
        else:
            low, high = characterizer.search_range
            units = shmoo_overlay_units(
                shmoo_sample,
                vdd_values,
                strobe_start=low,
                strobe_stop=high,
                strobe_step=0.5,
                search_resolution=characterizer.resolution,
                die=characterizer.ate.chip.die,
                parameter=characterizer.ate.chip.parameter,
                noise_sigma=characterizer.ate.measurement.noise_sigma_ns,
                campaign_seed=characterizer.seed,
            )
            campaign_id = (
                f"campaign-shmoo:seed={characterizer.seed}"
                f":tests={len(units)}:vdds={len(vdd_values)}"
            )
            store = _resolve_checkpoint(checkpoint, campaign_id)
            farm = make_executor(workers, executor)
            with span("shmoo"):
                results = farm.run(
                    units, run_shmoo_unit, checkpoint=store,
                    campaign=campaign_id,
                )
            shmoo = merge_overlays([r.value for r in results])
            farm_measurements = sum(r.measurements for r in results)

    return CampaignReport(
        table1=table1,
        drift=drift,
        spec_proposal=spec_proposal,
        shmoo=shmoo,
        database=optimization.database,
        total_measurements=(
            characterizer.ate.measurement_count - before + farm_measurements
        ),
    )
