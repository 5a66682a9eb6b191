"""Shared test fixtures.

The mmap storage backend (``REPRO_STORAGE=mmap``) spills every loaded
document's columns to a store file.  Point the spill directory at a
pytest-managed temp dir for the whole session so tier-1 runs under the
mmap backend never leave stray files behind, and so worker processes
(which inherit the environment) map stores from the same place.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def storage_spill_dir(tmp_path_factory):
    old = os.environ.get("REPRO_STORAGE_DIR")
    path = str(tmp_path_factory.mktemp("repro-stores"))
    os.environ["REPRO_STORAGE_DIR"] = path
    yield path
    if old is None:
        os.environ.pop("REPRO_STORAGE_DIR", None)
    else:
        os.environ["REPRO_STORAGE_DIR"] = old


@pytest.fixture
def unrewritten():
    """The unrewritten oracle: ``unrewritten(db, text)`` evaluates the
    raw parse of *text* — no compile-time rewrite, no plan cache — on
    the iterative evaluator and returns the serialized result.

    Every ``Database.query`` path (explicit ``strategy="basic"``
    included) runs the rewritten plan, so only this oracle can catch a
    wrong rewrite.
    """
    from repro.xquery.context import DynamicContext, StaticContext
    from repro.xquery.engine import QueryResult
    from repro.xquery.evaluator import evaluate_module
    from repro.xquery.parser import parse

    def evaluate(db, text: str) -> str:
        module = parse(text)
        static = StaticContext.from_prolog(module.prolog)
        ctx = DynamicContext(db.store, static, blobs=db.blobs)
        return QueryResult(evaluate_module(module, ctx)).serialize()

    return evaluate
