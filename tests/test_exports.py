import pytest

import synchrokit
from synchrokit import search


@pytest.mark.parametrize("module", [synchrokit, search], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from synchrokit import *", namespace)
    assert set(synchrokit.__all__) <= set(namespace)
