"""Smoke tests: every example script runs end to end and prints sensible output."""

from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXPECTED_SNIPPETS = {
    "quickstart.py": ["Q on {c, c, d}", "recursive (paper)", "Compiled view hierarchy"],
    "polynomial_memoization.py": ["Figure 1", "Random walk", "additions performed"],
    "social_analytics.py": [
        "Second delta",
        "customers remain",
        "Per-update time",
        "Top-3 posts per community",
        "the panel re-ranks",
    ],
    "sales_dashboard.py": ["Revenue per nation", "Busiest customers", "compiled revenue program"],
    "streaming_ingest.py": [
        "revenue per region",
        "Dead-letter quarantine",
        "pipeline still live",
        "next flush applied cleanly",
    ],
}


@pytest.mark.parametrize("script_name", sorted(EXPECTED_SNIPPETS))
def test_example_runs_and_prints(script_name, run_example):
    script_path = EXAMPLES_DIR / script_name
    assert script_path.exists(), script_path
    output, _sessions = run_example(script_name)
    for snippet in EXPECTED_SNIPPETS[script_name]:
        assert snippet in output, f"{script_name} did not print {snippet!r}"


def test_every_example_has_a_module_docstring():
    for script in EXAMPLES_DIR.glob("*.py"):
        first_line = script.read_text().lstrip().splitlines()[0]
        assert first_line.startswith('"""'), script
