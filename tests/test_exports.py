"""The public names of the package: ``farfield.__all__`` lists each once,
and ``from farfield import *`` binds every one of them."""

import importlib

import farfield


def test_every_exported_name_resolves_once():
    names = farfield.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(farfield, name)] == []
    namespace = {}
    exec("from farfield import *", namespace)
    assert set(names) <= set(namespace)


def test_convolve_and_frame_powers_are_not_exported():
    # nothing but tests called them; make_meeting and wpe use the private
    # kernels simulate._convolve and wpe._powers
    for module, name in (("farfield.simulate", "convolve"), ("farfield.wpe", "frame_powers")):
        assert name not in farfield.__all__
        assert not hasattr(farfield, name)
        assert not hasattr(importlib.import_module(module), name)
