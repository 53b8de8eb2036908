from types import ModuleType

import pairedsurv


def test_star_import_binds_no_module():
    assert [name for name in pairedsurv.__all__
            if isinstance(getattr(pairedsurv, name), ModuleType)] == []
    namespace = {}
    exec("from pairedsurv import *", namespace)
    assert set(pairedsurv.__all__) <= set(namespace)
    assert "data" not in namespace
    # and no object under two names
    names_of = {}
    for name in pairedsurv.__all__:
        names_of.setdefault(id(getattr(pairedsurv, name)), []).append(name)
    assert [names for names in names_of.values() if len(names) > 1] == []
