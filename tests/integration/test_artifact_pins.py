"""Byte pins of the paper artifacts at one small seed.

Each test renders an artifact a user sees (Table 1 text, an exported
worst-case database, a WCR screen report, pattern files) and compares
its SHA-256 digest with the value recorded here.  The budgets are tiny,
so the numbers are not the paper's; what is pinned is that a refactor
of the layers underneath (pattern storage, feature extraction, device
model, farm) changes no byte of what comes out.

A digest may only change together with a deliberate change of results,
recorded in CHANGES.md.
"""

import hashlib

import pytest

from repro.core.characterizer import DeviceCharacterizer
from repro.core.learning import LearningConfig
from repro.core.lot import LotCharacterizer
from repro.core.optimization import OptimizationConfig
from repro.ga.engine import GAConfig
from repro.patterns.conditions import NOMINAL_CONDITION
from repro.patterns.io import dump_test, save_test
from repro.patterns.random_gen import STYLES, RandomTestGenerator

SEED = 3

TABLE1_SHA = "ba5b76be1f8afc07a9b1ee11b904a0136f2caa4ad360462353494178883f1ba3"
LOT_SHA = "5a4ea3c34f8958ce4af9de829c3d58d3d9e68efdc6395de1a017958e6b89f221"
SCREEN_SHA = "04694b1849ae17e9fb5a252f2026ef10d08c90c49bf22e9af9bc30ac659938ee"
PATTERN_SHA = {
    "uniform": "c59c977d475b1f53b4c2e572daaa0272774722f3ce5222281b30c6f8b342fe68",
    "burst": "53d1da50dabedda76e8ac6714944f727853b133bd717bd3d2df152d28b07e6da",
    "sweep": "e9255d002a6957ea1b6875b84e87ab3c70cf7ffacc3ae90eff15a55d6b3e604b",
    "hammer": "90383623f5c4139b05a9a0cb66d44c3c76692bf7ec7de56b2181c96e8436afd3",
    "toggle": "98e5a47deebde3ca8cee2947f2e9c88bc3938420465644744f105c771be96a8c",
}


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def deck(count, min_cycles=100, max_cycles=300):
    generator = RandomTestGenerator(
        seed=SEED, min_cycles=min_cycles, max_cycles=max_cycles
    )
    return [test.with_condition(NOMINAL_CONDITION) for test in generator.batch(count)]


def test_table1_text_is_pinned():
    characterizer = DeviceCharacterizer.with_default_setup(seed=SEED)
    report = characterizer.run_table1_comparison(
        random_tests=100,
        learning_config=LearningConfig(
            tests_per_round=40,
            max_rounds=1,
            max_epochs=5,
            n_networks=3,
            pin_condition=NOMINAL_CONDITION,
            seed=SEED,
        ),
        optimization_config=OptimizationConfig(
            ga=GAConfig(population_size=6, n_populations=2, max_generations=3),
            n_seeds=3,
            seed_pool_size=12,
            pin_condition=NOMINAL_CONDITION,
            seed=SEED,
        ),
    )
    assert sha(report.to_text()) == TABLE1_SHA


@pytest.mark.parametrize("workers", [None, 2])
def test_lot_wcdb_export_is_pinned(tmp_path, workers):
    tests = deck(10)
    lot = LotCharacterizer(search_range=(15.0, 45.0), seed=SEED)
    result = lot.run(tests, n_dies=6, workers=workers)
    path = tmp_path / "wcdb.json"
    result.to_database(tests).export_json(path)
    assert sha(path.read_bytes()) == LOT_SHA


def test_screen_report_is_pinned():
    characterizer = DeviceCharacterizer.with_default_setup(seed=SEED)
    report = characterizer.wcr_screen(deck(20), strobe_step=0.25)
    assert sha(report.render()) == SCREEN_SHA


@pytest.mark.parametrize("style", [name for name, _ in STYLES])
def test_generated_pattern_file_is_pinned(tmp_path, style):
    test = RandomTestGenerator(seed=SEED).generate(style=style)
    path = tmp_path / f"{style}.pat"
    save_test(test, path)
    assert path.read_text() == dump_test(test)
    assert sha(path.read_bytes()) == PATTERN_SHA[style]
