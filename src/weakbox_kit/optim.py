"""Optimizers over a ParamStore. Frozen parameters are never touched."""

import numpy as np


class AdamW:
    """Adam with decoupled weight decay; float32 state for exact checkpoints."""

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params = params
        self.lr = float(lr)
        self.b1, self.b2 = betas
        self.eps = float(eps)
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


class SGD:
    """Plain SGD with optional momentum and coupled weight decay."""

    def __init__(self, params, lr=1e-2, momentum=0.9, weight_decay=0.0):
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.buf = {n: np.zeros_like(t.data) for n, t in params.trainable()}

    def step(self):
        self.step_count += 1
        for name, p in self.params.trainable():
            if p.grad is None:
                continue
            g = p.grad + np.float32(self.weight_decay) * p.data
            if name not in self.buf:
                self.buf[name] = np.zeros_like(p.data)
            b = self.buf[name]
            b *= np.float32(self.momentum)
            b += g
            p.data -= np.float32(self.lr) * b

    def state_dict(self):
        return {"step": self.step_count, "m": {n: a.copy() for n, a in sorted(self.buf.items())}, "v": {}}

    def load_state_dict(self, state):
        self.step_count = int(state["step"])
        self.buf = {n: np.asarray(a, dtype=np.float32).copy() for n, a in state["m"].items()}


def make_optimizer(kind, params, lr, weight_decay=0.01):
    if kind == "adamw":
        return AdamW(params, lr=lr, weight_decay=weight_decay)
    if kind == "sgd":
        return SGD(params, lr=lr, weight_decay=0.0)
    raise ValueError(f"unknown optimizer {kind!r}")
