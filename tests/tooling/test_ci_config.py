"""Sanity checks on the CI pipeline and packaging/lint configuration.

These tests are the repo-local stand-in for ``actionlint``: they parse the
workflow YAML and assert the pipeline has the three jobs CI relies on
(lint, the Python test matrix, and the benchmark smoke run) wired to the
same commands the Makefile exposes locally.
"""

import pathlib
import tomllib

import yaml

REPO = pathlib.Path(__file__).resolve().parents[2]
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
PYPROJECT = REPO / "pyproject.toml"
MAKEFILE = REPO / "Makefile"

TIER1 = "PYTHONPATH=src python -m pytest -x -q"
BENCH_SMOKE = "python -m repro.experiments.runner table5 --profile quick"
BENCH_TRAIN = "python -m repro.profiling.training"


def load_workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def job_run_lines(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def test_workflow_parses_and_triggers():
    workflow = load_workflow()
    assert workflow["name"] == "CI"
    # YAML 1.1 parses the bare key `on` as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers and "pull_request" in triggers


def test_workflow_has_lint_test_docs_and_bench_jobs():
    jobs = load_workflow()["jobs"]
    assert set(jobs) == {"lint", "tests", "docs", "bench-smoke"}


def test_test_job_runs_tier1_on_python_matrix():
    job = load_workflow()["jobs"]["tests"]
    versions = job["strategy"]["matrix"]["python-version"]
    assert versions == ["3.10", "3.11", "3.12"]
    assert any(TIER1 in line for line in job_run_lines(job))


def test_test_job_checks_tier1_left_tracked_files_unchanged():
    lines = job_run_lines(load_workflow()["jobs"]["tests"])
    tier1 = next(i for i, line in enumerate(lines) if TIER1 in line)
    assert lines[tier1 + 1].strip() == "git diff --exit-code"


def test_lint_job_runs_ruff_check_and_format():
    lines = job_run_lines(load_workflow()["jobs"]["lint"])
    assert any(line.startswith("ruff check") for line in lines)
    assert any(line.startswith("ruff format --check") for line in lines)


def test_bench_smoke_job_runs_quick_table5():
    lines = job_run_lines(load_workflow()["jobs"]["bench-smoke"])
    assert any(BENCH_SMOKE in line for line in lines)


def test_bench_smoke_job_runs_training_breakdown():
    lines = job_run_lines(load_workflow()["jobs"]["bench-smoke"])
    assert any(BENCH_TRAIN in line for line in lines)


def test_bench_smoke_job_ends_on_a_clean_tree():
    job = load_workflow()["jobs"]["bench-smoke"]
    # sidecars go outside the checkout, and the last step proves they did
    assert job["env"]["REPRO_BENCH_DIR"].startswith("/tmp/")
    assert job_run_lines(job)[-1].strip() == 'test -z "$(git status --porcelain)"'


def test_test_job_runs_artifact_roundtrip_smoke():
    lines = job_run_lines(load_workflow()["jobs"]["tests"])
    assert any("repro.artifacts.smoke fit" in line for line in lines)
    assert any("repro.artifacts.smoke check" in line for line in lines)


def test_test_job_runs_serving_gateway_smoke():
    lines = job_run_lines(load_workflow()["jobs"]["tests"])
    assert any("repro.serving.smoke" in line for line in lines)


def test_bench_smoke_job_runs_serving_breakdown():
    lines = job_run_lines(load_workflow()["jobs"]["bench-smoke"])
    assert any("repro.profiling.server" in line for line in lines)


def test_test_job_caches_pip():
    job = load_workflow()["jobs"]["tests"]
    setup = next(s for s in job["steps"] if s.get("uses", "").startswith("actions/setup-python@"))
    assert setup["with"]["cache"] == "pip"
    assert setup["with"]["cache-dependency-path"] == "pyproject.toml"


def test_console_script_entry_point_is_declared():
    config = tomllib.loads(PYPROJECT.read_text())
    scripts = config["project"]["scripts"]
    assert scripts["repro-experiments"] == "repro.experiments.runner:main"
    assert scripts["repro-serve"] == "repro.serving.server:main"
    assert scripts["repro-scenarios"] == "repro.scenarios.runner:main"


def test_docs_job_checks_links_and_validates_the_scenario_matrix():
    lines = job_run_lines(load_workflow()["jobs"]["docs"])
    assert any("tools/check_links.py" in line for line in lines)
    assert any(
        "repro.scenarios.runner" in line and "--validate" in line for line in lines
    )


def test_bench_smoke_job_runs_scenario_breakdown():
    lines = job_run_lines(load_workflow()["jobs"]["bench-smoke"])
    assert any("repro.profiling.scenarios" in line for line in lines)


def test_every_job_checks_out_and_sets_up_python():
    for name, job in load_workflow()["jobs"].items():
        uses = [step.get("uses", "") for step in job["steps"]]
        assert any(u.startswith("actions/checkout@") for u in uses), name
        assert any(u.startswith("actions/setup-python@") for u in uses), name


def test_pyproject_carries_ruff_config():
    config = tomllib.loads(PYPROJECT.read_text())
    assert config["project"]["requires-python"] == ">=3.10"
    ruff = config["tool"]["ruff"]
    assert ruff["target-version"] == "py310"
    assert "F" in ruff["lint"]["select"]


def test_makefile_targets_match_ci_commands():
    text = MAKEFILE.read_text()
    for target in (
        "test:", "lint:", "bench-smoke:", "bench-train:", "bench-serve:",
        "bench-scenarios:", "docs-check:", "smoke-serve:",
    ):
        assert f"\n{target}" in text, f"missing Makefile target {target}"
    assert "-m repro.experiments.runner table5 --profile quick" in text
    assert "-m repro.profiling.training" in text
    assert "-m repro.profiling.server" in text
    assert "-m repro.profiling.scenarios" in text
    assert "-m repro.serving.smoke" in text
    assert "tools/check_links.py" in text
    assert "ruff check" in text and "ruff format --check" in text
