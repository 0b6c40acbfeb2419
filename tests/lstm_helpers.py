"""Helpers shared by the tests that call the generator's batch internals."""

from __future__ import annotations

import numpy as np

from traitgen.generator import LstmModel, _Workspace, _cell


def batch_workspace(model: LstmModel, ids: np.ndarray) -> _Workspace:
    """A generator workspace of exactly the rows a (B, T) batch uses."""
    return _Workspace(model, (ids.shape[1] - 1) * len(ids))


def cell(model: LstmModel, xh: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step into buffers of its own: (h, c) of the cell input xh = [x, h_prev]."""
    rows, hdim = len(xh), model.config.hidden_dim
    h, c = np.empty((rows, hdim)), np.empty((rows, hdim))
    _cell(model, xh, c_prev, (np.empty((rows, 4 * hdim)), c, np.empty((rows, hdim)), h))
    return h, c
