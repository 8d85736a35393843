"""Persistent cross-run evaluation store.

``repro.store`` extends the evaluation-economy ladder one more rung:
the APE estimator avoids simulating non-candidates, the lint gate
avoids solving broken candidates, the in-memory memo avoids
re-solving within a run — and the :class:`EvalStore` avoids re-solving
across runs, workers and users.
"""

from .store import STORE_FILENAME, STORE_SCHEMA_VERSION, EvalStore

__all__ = [
    "EvalStore",
    "STORE_FILENAME",
    "STORE_SCHEMA_VERSION",
]
