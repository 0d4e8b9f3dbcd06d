"""Reproducible, portable analytics pipelines over simulated clouds.

The API is the submodules (``cloudrerun.config_model``, ``cloudrerun.caam``,
``cloudrerun.runtime`` and so on); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
