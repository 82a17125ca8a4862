"""Each default value is said once.

Run values live in `RunConfig` and conv geometry in `nets._conv`; a function
that is always called with an argument takes no default for it. The
defaulted parameters of every `def` in the package are exactly the ones
below, each omitted by some caller, and `NetConfig` is always built from a
RunConfig (`pipeline.net_config`), so it has no field defaults. `RunConfig`'s
fields are the keys a run varies; the values every run shares are constants.
"""

import ast
import dataclasses
import pathlib
import typing

from weakbox_kit.config import RunConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/weakbox_kit/*.py"))

ALLOWED = {
    ("cli", "main"): ("argv",),
    ("tensor", "__init__"): ("requires_grad", "dtype"),
    ("tensor", "tsum"): ("axis",),
    ("tensor", "tmean"): ("axis",),
    ("losses", "bce_loss"): ("clamp_eps",),
    ("losses", "dice_loss"): ("smooth_eps",),
    ("gradcheck", "run_gradcheck"): ("seed", "instances", "tol", "h"),
    ("gradcheck", "_uniform"): ("lo", "hi"),
    ("gradcheck", "_distinct"): ("lo", "hi"),
    ("synth", "gen_blob_mask"): ("shapes",),
    ("pipeline", "predict_batch"): ("scale_gap",),
    ("pipeline", "evaluate"): ("use_refine", "sample_ids"),
    ("pipeline", "_fit"): ("start_epoch",),
    ("nets", "_add_conv"): ("bias", "frozen", "zero"),
    ("nets", "_conv"): ("stride", "pad", "dilation"),
    ("nets", "add"): ("frozen",),
}


def defaulted(source, module):
    """{(module, def name): defaulted parameter names} of every def in source."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            names = [p.arg for p in positional[len(positional) - len(a.defaults) :]]
            names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if names:
                key = (module, node.name)
                assert key not in found, f"two defs named {key} take defaults"
                found[key] = tuple(names)
    return found


def test_finds_positional_and_keyword_defaults():
    source = "def f(a, b=1, *, c, d=2):\n    pass\nclass K:\n    def g(self, e=None):\n        pass\ndef h(x):\n    pass\n"
    assert defaulted(source, "m") == {("m", "f"): ("b", "d"), ("m", "g"): ("e",)}


def test_defaulted_parameters_are_the_allowlist():
    found = {}
    for path in PACKAGE:
        found.update(defaulted(path.read_text(), path.stem))
    assert found == ALLOWED
    assert sum(map(len, found.values())) == 27


def test_net_config_has_no_field_defaults():
    tree = ast.parse((ROOT / "src/weakbox_kit/nets.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "NetConfig"]
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
    assert [f.target.id for f in fields] == ["scale_pair", "use_cnn_gate"]
    assert all(f.value is None for f in fields)


def test_run_config_keys_are_what_a_run_varies():
    # a value every run shares is a constant, not a config key
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "phase",
        "epochs",
        "batch_size",
        "learning_rate",
        "scale1",
        "scale2",
        "beta",
        "gamma",
        "dataset_dir",
        "checkpoint_in",
        "checkpoint_out",
        "refine_checkpoint",
        "seed",
        "refine_label_fraction",
        "holdout_fraction",
        "use_sc",
        "use_cnn_gate",
        "supervision",
    ]
    constants = [name for name, hint in RunConfig.__annotations__.items() if typing.get_origin(hint) is typing.ClassVar]
    assert constants == ["lambda1", "lambda2", "smooth_eps", "clamp_eps"]
