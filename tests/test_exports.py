import scpoly


def test_every_exported_name_resolves():
    missing = [name for name in scpoly.__all__ if not hasattr(scpoly, name)]
    assert missing == []
    assert len(set(scpoly.__all__)) == len(scpoly.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from scpoly import *", namespace)
    assert set(scpoly.__all__) <= namespace.keys()
