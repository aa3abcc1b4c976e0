import quenchsim


def test_star_import_exports_all():
    # a stale name in __all__ makes the star import raise AttributeError
    namespace = {}
    exec("from quenchsim import *", namespace)
    assert len(set(quenchsim.__all__)) == len(quenchsim.__all__)
    for name in quenchsim.__all__:
        assert namespace[name] is getattr(quenchsim, name)
