"""Request shaping stays in one place: the deep forecasters' ``_forecast_requests``.

A module that assembles a forecast request from the history pieces itself
skips the model's own shaping (the Joint variant's multivariate target
history, say), and one that samples the future covariates itself skips the
forecast's randomness rule (RankNet-MLP's several pit plans, each on its
own child stream), so outside ``models/deep/`` no ``src/`` module may call
the pieces directly.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
SHAPING = {
    "_history_target",
    "_history_covariates",
    "_target_history_matrix",
    "_future_covariates",
    "_plans_per_forecast",
}


def shaping_calls(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SHAPING
        ):
            yield f"{path.relative_to(SRC.parent)}:{node.lineno} {node.func.attr}"


def test_only_the_deep_models_shape_requests_from_history():
    deep = SRC / "models" / "deep"
    offenders = [
        call
        for path in sorted(SRC.rglob("*.py"))
        if deep not in path.parents
        for call in shaping_calls(path)
    ]
    assert offenders == [], "build requests with _forecast_requests instead: " + ", ".join(offenders)


def test_the_guard_sees_the_deep_models_own_calls():
    # the scan finds real calls: _fleet_request and _forecast_requests use them all
    calls = list(shaping_calls(SRC / "models" / "deep" / "ranknet.py"))
    assert {call.rsplit(" ", 1)[1] for call in calls} == SHAPING
