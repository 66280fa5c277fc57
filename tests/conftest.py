import pathlib

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden files instead of comparing against them",
    )


@pytest.fixture
def golden(request):
    """Compare text against a stored golden file, byte for byte."""

    def check(name: str, text: str) -> None:
        path = GOLDEN_DIR / name
        if request.config.getoption("--regen-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            return
        assert path.exists(), f"golden file {name} missing; run pytest --regen-golden"
        assert text == path.read_text(encoding="utf-8"), f"output differs from golden {name}"

    return check
