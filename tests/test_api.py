import ddepoly


def test_star_import_resolves_every_exported_name():
    ns = {}
    exec("from ddepoly import *", ns)
    assert len(set(ddepoly.__all__)) == len(ddepoly.__all__)
    for name in ddepoly.__all__:
        assert ns[name] is getattr(ddepoly, name)
