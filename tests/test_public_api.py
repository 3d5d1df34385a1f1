"""The package's public surface: every exported name resolves."""

import crowdfuse


def test_all_names_resolve():
    assert len(set(crowdfuse.__all__)) == len(crowdfuse.__all__)
    missing = [name for name in crowdfuse.__all__
               if not hasattr(crowdfuse, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from crowdfuse import *", namespace)
    assert set(crowdfuse.__all__) <= namespace.keys()
