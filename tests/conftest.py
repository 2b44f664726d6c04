import pytest

from downsets import (
    build_qsplit,
    enumerate_downsets,
    representation_system,
    table7,
)
from downsets.cli import _random_poset as random_poset


@pytest.fixture(scope="session")
def split():
    return build_qsplit()


@pytest.fixture(scope="session")
def catalogue(split):
    return representation_system(split.q23)


@pytest.fixture(scope="session")
def iso_table(split, catalogue):
    'the table7 rows of the catalogue records, one per record'
    return table7(split, catalogue[1])


@pytest.fixture(scope="session")
def q23_members(split):
    return enumerate_downsets(split.q23)


@pytest.fixture
def make_random_poset():
    return random_poset


def random_submask(rng, mask):
    out = 0
    m = mask
    while m:
        bit = m & -m
        if rng.random() < 0.5:
            out |= bit
        m ^= bit
    return out


@pytest.fixture
def make_random_submask():
    return random_submask


def pytest_runtest_logreport(report):
    'one visible ledger line per exit criterion'
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.passed:
        verdict = "pass"
    elif report.skipped and hasattr(report, "wasxfail"):
        verdict = "expected-fail (documented defect)"
    else:
        verdict = "FAIL"
    print("criterion %-42s %s" % (name, verdict))
