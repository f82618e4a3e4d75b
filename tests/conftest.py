import numpy as np
import pytest

from mjls import MjlsModel, save_model


def two_mode_benchmark() -> MjlsModel:
    """Two-mode planar system used as the running example across the suite.

    Mode 0 pairs an oscillatory A with a single shared input channel; mode 1
    is a stable diagonal.  The chain strongly favors mode 0.
    """
    return MjlsModel(
        A=[[[2.0, 1.1], [-1.7, -0.8]], [[0.8, 0.0], [0.0, 0.6]]],
        B=[[[1.0], [1.0]], [[2.0], [1.0]]],
        Q=[np.eye(2), np.eye(2)],
        R=[[[1.0]], [[1.0]]],
        transition=[[0.9, 0.1], [0.7, 0.3]],
        initial_distribution=[0.5, 0.5],
        x0=[5.0, 5.0],
    )


def scalar_model(a=0.5, b=1.0, q=1.0, r=1.0, x0=1.0) -> MjlsModel:
    return MjlsModel(A=[[[a]]], B=[[[b]]], Q=[[[q]]], R=[[[r]]],
                     transition=[[1.0]], initial_distribution=[1.0], x0=[x0])


def edge_model(a) -> MjlsModel:
    """Two scalar modes x+ = a x + b_i u with b = (1, 0) and uniform jumps.

    Mode 1 cannot be controlled; the gain (-a, 0) zeroes mode 0 and leaves
    the best closed-loop radius a^2 / 2, so value iteration slows down as
    a approaches sqrt(2).
    """
    return MjlsModel(A=np.full((2, 1, 1), a), B=[[[1.0]], [[0.0]]],
                     Q=np.ones((2, 1, 1)), R=np.ones((2, 1, 1)),
                     transition=np.full((2, 2), 0.5),
                     initial_distribution=[0.5, 0.5], x0=[1.0])


@pytest.fixture
def bench() -> MjlsModel:
    return two_mode_benchmark()


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "bench.json"
    save_model(two_mode_benchmark(), path)
    return path
