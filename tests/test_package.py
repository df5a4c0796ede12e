"""The public surface of the vkp package."""

import types

import vkp


def test_all_resolves_and_lists_every_public_name():
    for name in vkp.__all__:
        assert hasattr(vkp, name), name
    public = {
        name for name, value in vars(vkp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(vkp.__all__) == len(set(vkp.__all__))
    assert set(vkp.__all__) == public
