from pathlib import Path

import pytest

from riskbounds import fit_grouped_logistic, parse_category_table

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def vrag_path() -> Path:
    return DATA_DIR / "vrag_categories.csv"


@pytest.fixture(scope="session")
def vrag_table(vrag_path):
    return parse_category_table(vrag_path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def vrag_fit(vrag_table):
    return fit_grouped_logistic(vrag_table)
