"""The equivalence digest (``tests/digest.py``) on every bucket up to rank 4.

The full set, up to A6, B5, C5, D5 and the catalogs up to n = 31, is checked
by ``python tests/digest.py``; ``pytest --regen-golden`` rewrites the file.
"""

import digest
import pytest

TIER1_DIAGRAMS = [(t, r) for t, r in digest.all_diagrams() if r <= 4]


@pytest.fixture(scope="module")
def stored(request):
    if request.config.getoption("--regen-golden"):
        digest.write()
    return digest.load()


@pytest.mark.parametrize("type_tag, rank", TIER1_DIAGRAMS, ids=[f"{t}{r}" for t, r in TIER1_DIAGRAMS])
def test_digest_buckets(stored, type_tag, rank):
    assert digest.mismatches(type_tag, rank, stored) == []
