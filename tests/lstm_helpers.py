"""Helpers shared by the tests that call the generator's batch internals."""

from __future__ import annotations

import numpy as np

from traitgen.generator import LstmModel, _Workspace


def batch_workspace(model: LstmModel, ids: np.ndarray) -> _Workspace:
    """A generator workspace of exactly the rows a (B, T) batch uses."""
    return _Workspace(model.config, (ids.shape[1] - 1) * len(ids))
