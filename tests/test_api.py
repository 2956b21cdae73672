import types

import surfgrow


def test_all_lists_exactly_the_imported_names():
    # each entry resolves, none is a submodule, none is listed twice
    public = {name for name, obj in vars(surfgrow).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert sorted(surfgrow.__all__) == sorted(public)
