"""The package's public names: ``__all__`` lists only what the package binds,
and a star import binds exactly ``__all__``."""

import irrcert


def test_every_exported_name_is_an_attribute():
    missing = [name for name in irrcert.__all__ if not hasattr(irrcert, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from irrcert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(irrcert.__all__)
    assert len(set(irrcert.__all__)) == len(irrcert.__all__)
