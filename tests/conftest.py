from pathlib import Path

import pytest

from domlab.domination import SolverConfig
from domlab.graph import from_edge_list


@pytest.fixture(scope="session")
def data_dir():
    """The seeded graph6 corpora, found from this file, not the working directory."""
    return Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def cfg():
    return SolverConfig()


@pytest.fixture
def bowtie():
    return from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


@pytest.fixture
def paw():
    return from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
