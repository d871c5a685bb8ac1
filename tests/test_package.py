import ntkalign


def test_public_names_resolve_and_star_import_works():
    missing = [name for name in ntkalign.__all__ if not hasattr(ntkalign, name)]
    assert missing == []
    namespace = {}
    exec("from ntkalign import *", namespace)
    assert set(ntkalign.__all__) <= namespace.keys()
