"""Audit toolkit for weighted causal estimands on discrete designs."""

from . import bounds, cells, data_io, designs, errors, inference, validity
from .bounds import *
from .cells import *
from .data_io import *
from .designs import *
from .inference import *
from .validity import *

__all__ = sorted([*bounds.__all__, *cells.__all__, *data_io.__all__,
                  *designs.__all__, *inference.__all__, *validity.__all__,
                  "errors"])

__version__ = "0.1.0"
