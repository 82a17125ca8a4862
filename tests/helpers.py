"""Conveniences the tests share and the program does not need."""

from weakbox_kit.checkpoint import save_checkpoint
from weakbox_kit.config import RunConfig
from weakbox_kit.pipeline import net_config

NCFG = net_config(RunConfig())  # the network of a default run


def save_untrained(path, params, seed=0, epoch=0):
    """Write params as a checkpoint that carries no optimizer state."""
    save_checkpoint(path, params, "none", {"step": 0, "m": {}, "v": {}}, seed, epoch)
