from types import ModuleType

import pairedsurv


def test_star_import_binds_no_module():
    assert [name for name in pairedsurv.__all__
            if isinstance(getattr(pairedsurv, name), ModuleType)] == []
    namespace = {}
    exec("from pairedsurv import *", namespace)
    assert set(pairedsurv.__all__) <= set(namespace)
    assert "data" not in namespace
