"""The optimizer over a ParamStore. Frozen parameters are never touched."""

import numpy as np


class AdamW:
    """Adam with decoupled weight decay; float32 state for exact checkpoints."""

    kind = "adamw"  # the optimizer tag a training checkpoint carries
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-4, weight_decay=0.01):
        self.params = params
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.trainable()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.trainable()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = np.float32(1.0 - self.b1**t)
        bc2 = np.float32(1.0 - self.b2**t)
        for name, p in self.params.trainable():
            if p.grad is None:
                continue
            g = p.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= np.float32(self.b1)
            m += np.float32(1.0 - self.b1) * g
            v *= np.float32(self.b2)
            v += np.float32(1.0 - self.b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + np.float32(self.eps))
            p.data -= np.float32(self.lr) * (update + np.float32(self.weight_decay) * p.data)

    def state_dict(self):
        return {
            "step": self.step_count,
            "m": {n: a.copy() for n, a in sorted(self.m.items())},
            "v": {n: a.copy() for n, a in sorted(self.v.items())},
        }

    def load_state_dict(self, state):
        self.step_count = int(state["step"])
        self.m = {n: np.asarray(a, dtype=np.float32).copy() for n, a in state["m"].items()}
        self.v = {n: np.asarray(a, dtype=np.float32).copy() for n, a in state["v"].items()}


def make_optimizer(params, lr, weight_decay):
    """The training optimizer: AdamW with decoupled weight decay. Both phases
    build it through this name in `pipeline`, which perfbench wraps to time
    each step."""
    return AdamW(params, lr=lr, weight_decay=weight_decay)
