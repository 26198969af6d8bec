"""The checked-in experiment configs resolve, and the README names only configs that exist.

Nothing here trains: each config goes through the CLI's loader, its data
recipe and its TrainConfig for every seed it lists.
"""

import re
from pathlib import Path

import pytest

from lccn_lab.cli import _load_config, _seed_list, build_datasets, build_train_config

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "configs").glob("*.json"))


def test_configs_are_checked_in():
    assert {p.name for p in CONFIGS} >= {"experiment.json", "recovery.json"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_resolves_for_each_seed(path):
    cfg, base = _load_config(str(path))
    train_ds, test_ds, _, reference_phi = build_datasets(cfg, base)
    assert test_ds is not None and reference_phi is not None
    assert train_ds.n_classes == test_ds.n_classes == cfg["generator"]["k"]
    seeds = _seed_list(cfg["seeds"])
    assert seeds
    for seed in seeds:
        assert build_train_config(cfg["train"], seed=seed, base=base).seed == seed


def test_readme_names_only_existing_configs():
    named = set(re.findall(r"configs/[\w./-]+\.json", (REPO / "README.md").read_text()))
    assert named
    assert sorted(p for p in named if not (REPO / p).exists()) == []
