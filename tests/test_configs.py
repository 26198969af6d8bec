"""The checked-in experiment configs resolve, and the README names only configs that exist.

Nothing here trains: each config goes through the CLI's loader and the plan
step that `train` runs, which builds its data and checks the TrainConfig of
every seed it lists.
"""

import re
from pathlib import Path

import pytest

from lccn_lab.cli import _load_config, _plan

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "configs").glob("*.json"))


def test_configs_are_checked_in():
    assert {p.name for p in CONFIGS} >= {"experiment.json", "recovery.json"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_resolves_for_each_seed(path):
    cfg, base = _load_config(str(path))
    seeds = cfg["seeds"]
    assert seeds
    runs = _plan(cfg, seeds, base)
    assert [config.seed for *_, config, _ in runs] == seeds
    for train_ds, test_ds, _, config, _ in runs:
        assert test_ds is not None and config.reference_phi is not None
        assert train_ds.n_classes == test_ds.n_classes == cfg["generator"]["k"]


def test_readme_names_only_existing_configs():
    named = set(re.findall(r"configs/[\w./-]+\.json", (REPO / "README.md").read_text()))
    assert named
    assert sorted(p for p in named if not (REPO / p).exists()) == []
