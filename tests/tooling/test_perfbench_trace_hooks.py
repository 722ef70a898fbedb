"""The traced benchmark's hooks still fit the package.

``perfbench/run.py --trace 1`` reports ``engine.gemm_row_fill`` from the
shapes that ``perfbench.serving.record_warmup_shapes`` records: it patches
``forward_sequence`` on ``repro.nn.inference.LSTMStackInference`` and reads
``stack.stack.cells``.  The gateway layers are timed by
``perfbench.serving._wrap_gateway`` and the worker spawns by wrapping
``WorkerSupervisor.ensure``; ``Tracer.patch`` reads ``vars(owner)[name]``,
so each wrapped method must be defined on the class it is wrapped on.
Renaming or moving any of these in the package would otherwise only show
when a traced benchmark run breaks.
"""

import pathlib
import sys

import numpy as np

REPO = pathlib.Path(__file__).resolve().parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from perfbench.serving import _wrap_gateway, record_warmup_shapes  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from repro.models.deep.rankmodel import RankSeqModel  # noqa: E402
from repro.nn.inference import LSTMStackInference  # noqa: E402
from repro.serving import FleetForecaster, ForecastRequest, spawn_request_rngs  # noqa: E402
from repro.serving.journal import SessionJournal  # noqa: E402
from repro.serving.server import ForecastGateway  # noqa: E402
from repro.serving.service import ForecastService  # noqa: E402
from repro.serving.supervisor import RaceSessionProxy, WorkerSupervisor  # noqa: E402

N_COV = 3


def make_requests(lengths, seed=1):
    rng = np.random.default_rng(0)
    streams = spawn_request_rngs(np.random.default_rng(seed), len(lengths))
    return [
        ForecastRequest(np.clip(10 + np.cumsum(rng.normal(0, 1, length)), 1, 33),
                        rng.normal(size=(length, N_COV)), np.zeros((2, N_COV)),
                        n_samples=4, rng=stream)
        for length, stream in zip(lengths, streams)
    ]


def test_record_warmup_shapes_sees_every_exact_warmup_and_restores():
    model = RankSeqModel(num_covariates=N_COV, hidden_dim=8, num_layers=2,
                         encoder_length=12, decoder_length=2, rng=0)
    engine = FleetForecaster(model, mode="exact")
    original = vars(LSTMStackInference)["forward_sequence"]
    lengths = (12, 12, 9, 12, 9)  # two groups: 3 cars x 12 laps, 2 cars x 9 laps
    shapes = []
    with Tracer() as tracer:  # restores the patched method on exit
        record_warmup_shapes(tracer, shapes)
        traced = engine.submit(make_requests(lengths))
    # (batch, teacher-forced steps, layers) of each group's one warm-up pass
    assert shapes == [(3, 11, 2), (2, 8, 2)]
    assert vars(LSTMStackInference)["forward_sequence"] is original
    untraced = engine.submit(make_requests(lengths))
    assert len(shapes) == 2
    for a, b in zip(traced, untraced):
        assert a.tobytes() == b.tobytes()


def test_gateway_wrappers_install_on_the_package_and_restore():
    hooked = [
        (ForecastGateway, "handle"),
        (ForecastService, "submit"),
        (FleetForecaster, "submit"),
        (RaceSessionProxy, "apply_lap"),
        (SessionJournal, "record_lap"),
        (SessionJournal, "compact"),
        (WorkerSupervisor, "ensure"),
    ]
    originals = {(owner, name): vars(owner)[name] for owner, name in hooked}
    with Tracer() as tracer:
        _wrap_gateway(tracer)
        tracer.wrap(WorkerSupervisor, "ensure", "workers.ensure")
        for owner, name in hooked:
            assert vars(owner)[name] is not originals[(owner, name)], (owner, name)
    for owner, name in hooked:
        assert vars(owner)[name] is originals[(owner, name)], (owner, name)
