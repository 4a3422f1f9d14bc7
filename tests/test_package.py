import types

import gboc

# the submodules, the error base class, and the names of the library round
# trip in the README; everything else is reached through its module
EXPORTS = [
    "GbocError", "TimeSeries", "TrainConfig", "detect", "errors", "evaluate", "granular", "load_csv",
    "load_model", "metrics", "model_io", "neural", "save_model", "scoring", "synth_scenario", "train",
    "trainer", "tsdata",
]


def test_each_export_resolves_to_its_module_definition():
    assert sorted(gboc.__all__) == EXPORTS
    for name in gboc.__all__:
        obj = getattr(gboc, name)
        if isinstance(obj, types.ModuleType):
            assert obj.__name__ == f"gboc.{name}"
        else:
            assert getattr(__import__(obj.__module__, fromlist=[name]), name) is obj
