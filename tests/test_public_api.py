import kortsolve


def test_every_export_resolves_once():
    names = kortsolve.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(kortsolve, name)]
    assert not missing, missing


def test_star_import():
    # raises AttributeError on a name left in __all__ after its deletion
    namespace = {}
    exec("from kortsolve import *", namespace)
    assert set(kortsolve.__all__) <= set(namespace)
