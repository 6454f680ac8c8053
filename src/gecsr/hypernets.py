"""Damping-factor generators: learned vectors, static nets, recurrent nets.

Three controller classes implement the solver's DampingPolicy interface:

* DirectSchedulePolicy -- per-layer logits learned directly (no network).
* StaticHyperNetPolicy -- a two-layer net mapping the matrix shape and the
  SNR working point to the whole damping schedule at once (optionally behind
  a multi-head self-attention sublayer over its input, with a residual
  path around it).
* HyperGruPolicy -- a gated recurrent cell generating one damping factor per
  query from the scenario, the querying side's own last two factors, and the
  current extrinsic variance, so it extends to any number of layers
  (optionally with a single attention head over the hidden state).

The solver resets a controller once per run with the scenario (unit-norm
spectrum, sqrt(SNR)) and queries it with the extrinsic variance; whatever
else it reads -- the static schedule, the GRU's damping history -- it forms.

Each controller owns its depth and width rules.  The fixed-depth ones
(direct and static) damp by 0.5, with no gradient, past their trained depth.
The static and recurrent ones read the spectrum through `spectrum_input`,
so a controller trained at one N runs at any other.

All weights live in small dataclasses that flatten to/from one real vector
for the trainer, and serialize to a JSON checkpoint.

Each policy class is the only implementation of its controller, for the
solver and for the exact adjoint alike.  A taped `solver.LayerRecursion`
resets its policy with `tape=True`, which starts a recorded run: the
forward functions below then fill a tape, the adjoint hands dL/dbeta back
through `backward_beta` in reverse query order, which returns dL/dv_ext,
and `gradients()` returns dL/dparameters as a bundle shaped like the
weights.  Solver runs record nothing.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .solver import DampingPolicy

INIT_SCALE = 0.1


class CheckpointError(ValueError):
    """A checkpoint file is missing fields or inconsistent."""


def sigmoid(v):
    # e^709 is about the largest finite power of e: the clip keeps a strongly
    # negative input from overflowing and changes no value at v >= -709.
    return 1.0 / (1.0 + np.exp(np.minimum(-np.asarray(v, dtype=float), 709.0)))


def relu(v):
    return np.maximum(np.asarray(v, dtype=float), 0.0)


@dataclass
class AttentionHead:
    """One self-attention head: two square feature maps over the input."""

    w_b: np.ndarray
    w_c: np.ndarray


def attention_head(s: np.ndarray, head: AttentionHead,
                   tape: Optional[dict] = None) -> np.ndarray:
    """Scaled dot-product self-attention of a vector with itself.

    Row i of the weight matrix is softmax_j(b_i c_j / sqrt(d)), so every row
    is a probability distribution over input positions.
    """
    d = s.shape[0]
    b = head.w_b @ s
    c = head.w_c @ s
    logits = np.outer(b, c) / np.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    out = weights @ s
    if tape is not None:
        tape.update(s=s, b=b, c=c, weights=weights, out=out)
    return out


def attention_backward(g_out: np.ndarray, head: AttentionHead, tape: dict
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint of attention_head: (dL/ds, dL/db, dL/dc).

    b = w_b s and c = w_c s, so the weight gradients are outer(dL/db, s)
    and outer(dL/dc, s); callers form them.
    """
    s, b, c, weights = tape["s"], tape["b"], tape["c"], tape["weights"]
    g_s = weights.T @ g_out
    # Softmax rows with out = W s: dL/dlogits_ij = W_ij g_i (s_j - out_i).
    g_logits = weights * (g_out[:, None] * (s - tape["out"][:, None]))
    scale = 1.0 / np.sqrt(s.shape[0])
    g_b = scale * (g_logits @ c)
    g_c = scale * (g_logits.T @ b)
    g_s += head.w_b.T @ g_b + head.w_c.T @ g_c
    return g_s, g_b, g_c


@dataclass
class MultiAttention:
    """Several attention heads combined by a learned mixing vector.

    Every head's output entry is a convex mix of the input entries, so the
    mix alone cannot pass the input on unchanged.  The sublayer therefore
    returns s + sum_h mix_h head_h(s), the residual connection around each
    attention sublayer in Vaswani et al., arXiv:1706.03762, section 3.1.
    """

    heads: tuple[AttentionHead, ...]
    mix: np.ndarray


def multi_attention(s: np.ndarray, multi: MultiAttention,
                    tapes: Optional[list[dict]] = None) -> np.ndarray:
    # The identity path holds no weights, so hypernet_backward has no term for it.
    out = s.copy()
    for i, (weight, head) in enumerate(zip(multi.mix, multi.heads)):
        out += weight * attention_head(s, head, None if tapes is None else tapes[i])
    return out


@dataclass
class HyperNetParams:
    """Two-layer static controller: all damping factors from one forward pass.

    w1 is hidden x (n + 1), w2 is layers x hidden; the input stacks the
    unit-norm spectrum with the square root of the SNR.
    """

    w1: np.ndarray
    w2: np.ndarray
    attention: Optional[MultiAttention] = None

    @property
    def layers(self) -> int:
        return self.w2.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def n(self) -> int:
        return self.w1.shape[1] - 1


def hypernet_forward(s: np.ndarray, params: HyperNetParams,
                     tape: Optional[dict] = None) -> np.ndarray:
    """Full damping schedule sigmoid(w2 @ relu(w1 @ s'))."""
    if s.shape != (params.w1.shape[1],):
        raise ValueError(f"input length {s.shape} does not match "
                         f"controller width {params.w1.shape[1]}")
    head_tapes = None
    if params.attention is not None:
        if tape is not None:
            head_tapes = [{} for _ in params.attention.heads]
        s = multi_attention(s, params.attention, head_tapes)
    pre = params.w1 @ s
    hidden = relu(pre)
    betas = sigmoid(params.w2 @ hidden)
    if tape is not None:
        tape.update(s_in=s, pre=pre, hidden=hidden, betas=betas, heads=head_tapes)
    return betas


def hypernet_backward(g_betas: np.ndarray, params: HyperNetParams, tape: dict,
                      grads: HyperNetParams) -> None:
    """Adjoint of hypernet_forward: adds dL/dweights to `grads`."""
    betas = tape["betas"]
    g_out = g_betas * betas * (1.0 - betas)
    grads.w2 += np.outer(g_out, tape["hidden"])
    g_pre = (params.w2.T @ g_out) * (tape["pre"] > 0)
    grads.w1 += np.outer(g_pre, tape["s_in"])
    if params.attention is None:
        return
    g_s_in = params.w1.T @ g_pre
    for i, head in enumerate(params.attention.heads):
        head_tape = tape["heads"][i]
        grads.attention.mix[i] += float(np.dot(g_s_in, head_tape["out"]))
        _, g_b, g_c = attention_backward(params.attention.mix[i] * g_s_in, head,
                                         head_tape)
        grads.attention.heads[i].w_b += np.outer(g_b, head_tape["s"])
        grads.attention.heads[i].w_c += np.outer(g_c, head_tape["s"])


@dataclass
class HyperGruParams:
    """Gated recurrent controller weights, shared across every step.

    Gate matrices act on the concatenation [state, input] with input size
    n + 4; w_out reads the damping factor off the (optionally re-attended)
    state.
    """

    w_update: np.ndarray
    w_reset: np.ndarray
    w_cand: np.ndarray
    w_out: np.ndarray
    attention: Optional[AttentionHead] = None

    @property
    def hidden(self) -> int:
        return self.w_update.shape[0]

    @property
    def n(self) -> int:
        return self.w_update.shape[1] - self.hidden - 4


def gru_step(state: np.ndarray, s: np.ndarray, params: HyperGruParams,
             tape: Optional[dict] = None) -> tuple[np.ndarray, float]:
    """One recurrent update; returns the new state and its damping factor."""
    joint = np.concatenate([state, s])
    z = sigmoid(params.w_update @ joint)
    r = sigmoid(params.w_reset @ joint)
    joint_c = np.concatenate([r * state, s])
    cand = np.tanh(params.w_cand @ joint_c)
    new_state = (1.0 - z) * state + z * cand
    readout = new_state
    head_tape = None
    if params.attention is not None:
        if tape is not None:
            head_tape = {}
        readout = attention_head(new_state, params.attention, head_tape)
    beta = float(sigmoid(params.w_out @ readout))
    if tape is not None:
        tape.update(prev=state, joint=joint, z=z, r=r, joint_c=joint_c, cand=cand,
                    readout=readout, beta=beta, attention=head_tape)
    return new_state, beta


def gru_step_backward(g_beta: float, g_state: np.ndarray, params: HyperGruParams,
                      tape: dict) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of gru_step.

    `g_state` is dL/d(new state) from the later steps; returns dL/d(state)
    and dL/d(input).  Each weight's gradient is an outer product of a
    pre-activation adjoint with that weight's input; the adjoints go into
    the tape under "g_" names, and `gru_weight_gradients` sums the products
    over a run.
    """
    beta = tape["beta"]
    g_pre = g_beta * beta * (1.0 - beta)
    g_readout = g_pre * params.w_out
    tape["g_out"] = g_pre
    if params.attention is not None:
        g_readout, tape["g_attn_b"], tape["g_attn_c"] = attention_backward(
            g_readout, params.attention, tape["attention"])
    g_new_state = g_readout + g_state
    # new_state = (1 - z) prev + z cand.
    prev, z, r, cand = tape["prev"], tape["z"], tape["r"], tape["cand"]
    g_z = g_new_state * (cand - prev)
    g_cand = g_new_state * z
    g_prev = g_new_state * (1.0 - z)
    # cand = tanh(w_cand [r*prev, s]).
    g_cand_pre = g_cand * (1.0 - cand * cand)
    g_joint_c = params.w_cand.T @ g_cand_pre
    h = params.hidden
    g_rprev = g_joint_c[:h]
    g_s = g_joint_c[h:]
    g_r = g_rprev * prev
    g_prev = g_prev + g_rprev * r
    # Gates.
    g_z_pre = g_z * z * (1.0 - z)
    g_r_pre = g_r * r * (1.0 - r)
    tape.update(g_update=g_z_pre, g_reset=g_r_pre, g_cand=g_cand_pre)
    g_joint = params.w_update.T @ g_z_pre + params.w_reset.T @ g_r_pre
    return g_prev + g_joint[:h], g_s + g_joint[h:]


def gru_weight_gradients(params: HyperGruParams, tapes: list[dict]) -> HyperGruParams:
    """dL/dweights of a run from its steps' tapes, after `gru_step_backward`.

    Each weight's gradient is one (hidden x T) @ (T x width) product of the
    T steps' pre-activation adjoints with their inputs.
    """
    grads = _zeros_like(params)
    if not tapes:
        return grads

    def stack(key: str) -> np.ndarray:
        return np.array([tape[key] for tape in tapes])

    joint = stack("joint")
    grads.w_update[...] = stack("g_update").T @ joint
    grads.w_reset[...] = stack("g_reset").T @ joint
    grads.w_cand[...] = stack("g_cand").T @ stack("joint_c")
    grads.w_out[...] = stack("g_out") @ stack("readout")
    if params.attention is not None:
        states = np.array([tape["attention"]["s"] for tape in tapes])
        grads.attention.w_b[...] = stack("g_attn_b").T @ states
        grads.attention.w_c[...] = stack("g_attn_c").T @ states
    return grads


@dataclass
class DirectDampingParams:
    """Per-layer damping logits learned directly (one value per side)."""

    logits_z: np.ndarray
    logits_x: np.ndarray
    tied: bool = False

    def __post_init__(self):
        # A tied schedule has one logit vector, shared by both sides.
        if self.tied:
            self.logits_x = self.logits_z

    @property
    def layers(self) -> int:
        return self.logits_z.shape[0]


def _zeros_like(params):
    """A bundle shaped like `params` with every weight zero."""
    return params_from_vector(params, np.zeros_like(params_to_vector(params)))


def spectrum_input(sigma_tilde: np.ndarray, n: int) -> np.ndarray:
    """The spectrum shape at trained width `n`; one of another width (an image's,
    say) is linearly resampled onto n points and renormalized to unit norm."""
    if sigma_tilde.shape[0] == n:
        return sigma_tilde
    shape = np.interp(np.linspace(0.0, 1.0, n),
                      np.linspace(0.0, 1.0, sigma_tilde.shape[0]), sigma_tilde)
    norm = float(np.linalg.norm(shape))
    return shape / norm if norm > 0 else shape


class DirectSchedulePolicy(DampingPolicy):
    """Damping factors sigmoid(logit) looked up per layer and side."""

    def __init__(self, params: DirectDampingParams):
        self.params = params
        self._beta_z = sigmoid(params.logits_z)
        self._beta_x = self._beta_z if params.tied else sigmoid(params.logits_x)

    def reset(self, sigma_tilde: np.ndarray, sqrt_snr: float, tape: bool = False) -> None:
        self._grads = _zeros_like(self.params) if tape else None

    def beta(self, side: str, t: int, v_ext: float) -> float:
        if t > self.params.layers:
            return 0.5
        table = self._beta_z if side == "z" else self._beta_x
        return float(table[t - 1])

    def backward_beta(self, side: str, t: int, g_beta: float) -> float:
        if t <= self.params.layers:
            table, grad = ((self._beta_z, self._grads.logits_z) if side == "z"
                           else (self._beta_x, self._grads.logits_x))
            beta = table[t - 1]
            grad[t - 1] += g_beta * beta * (1.0 - beta)
        return 0.0

    def gradients(self) -> DirectDampingParams:
        return self._grads


class StaticHyperNetPolicy(DampingPolicy):
    """Static controller: one forward pass per run, both sides tied."""

    def __init__(self, params: HyperNetParams):
        self.params = params

    def reset(self, sigma_tilde: np.ndarray, sqrt_snr: float, tape: bool = False) -> None:
        self._tape = {} if tape else None
        self._g_betas = np.zeros(self.params.layers) if tape else None
        s = np.concatenate([spectrum_input(sigma_tilde, self.params.n), [sqrt_snr]])
        self._betas = hypernet_forward(s, self.params, self._tape)

    def beta(self, side: str, t: int, v_ext: float) -> float:
        if t > self.params.layers:
            return 0.5
        return float(self._betas[t - 1])

    def backward_beta(self, side: str, t: int, g_beta: float) -> float:
        if t <= self.params.layers:
            self._g_betas[t - 1] += g_beta
        return 0.0

    def gradients(self) -> HyperNetParams:
        grads = _zeros_like(self.params)
        hypernet_backward(self._g_betas, self.params, self._tape, grads)
        return grads


class HyperGruPolicy(DampingPolicy):
    """Recurrent controller: one hidden state carried across all queries.

    The step input is [sigma_tilde, sqrt(SNR), beta(t-1), beta(t-2),
    log10(v_ext)]: the scenario part is formed at reset, the factors are the
    querying side's own (1 before the first layer), and log10(v_ext) is
    clipped to [-11, 11] so it cannot saturate the gates.
    """

    def __init__(self, params: HyperGruParams):
        self.params = params

    def reset(self, sigma_tilde: np.ndarray, sqrt_snr: float, tape: bool = False) -> None:
        self._scenario = np.concatenate([spectrum_input(sigma_tilde, self.params.n),
                                         [sqrt_snr]])
        self.state = np.zeros(self.params.hidden)
        self._history = {"z": (1.0, 1.0), "x": (1.0, 1.0)}
        self._steps: Optional[list[dict]] = [] if tape else None
        self._done: list[dict] = []
        self._g_state = np.zeros(self.params.hidden)
        # dL/d(beta(t-1), beta(t-2)) of each side's next query back.
        self._g_feed = {"z": (0.0, 0.0), "x": (0.0, 0.0)}

    def beta(self, side: str, t: int, v_ext: float) -> float:
        log_v = np.log10(v_ext) if v_ext > 0 else -11.0
        prev, prev2 = self._history[side]
        s = np.concatenate([self._scenario, [prev, prev2, min(max(log_v, -11.0), 11.0)]])
        step = None
        if self._steps is not None:
            step = {"v_ext": v_ext, "log_inside": -11.0 < log_v < 11.0}
            self._steps.append(step)
        self.state, beta = gru_step(self.state, s, self.params, step)
        self._history[side] = (beta, prev)
        return beta

    def backward_beta(self, side: str, t: int, g_beta: float) -> float:
        """Backpropagation through time, one query back; returns dL/dv_ext.

        The adjoints of this query's two damping-history inputs wait for the
        same side's two earlier queries, whose outputs they are.
        """
        step = self._steps.pop()
        fb1, fb2 = self._g_feed[side]
        self._g_state, g_s = gru_step_backward(g_beta + fb1, self._g_state, self.params,
                                               step)
        self._done.append(step)
        n = self.params.n
        self._g_feed[side] = (fb2 + float(g_s[n + 1]), float(g_s[n + 2]))
        if not step["log_inside"]:
            return 0.0
        return float(g_s[n + 3]) / (step["v_ext"] * np.log(10.0))

    def gradients(self) -> HyperGruParams:
        return gru_weight_gradients(self.params, self._done)


def _uniform(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, shape)


def init_hypernet_params(n: int, layers: int, hidden: int = 32, heads: int = 4,
                         attention: bool = False, seed: int = 0) -> HyperNetParams:
    rng = np.random.default_rng(seed)
    w1 = _uniform(rng, hidden, n + 1)
    w2 = _uniform(rng, layers, hidden)
    attn = None
    if attention:
        attn = MultiAttention(
            heads=tuple(AttentionHead(_uniform(rng, n + 1, n + 1),
                                      _uniform(rng, n + 1, n + 1))
                        for _ in range(heads)),
            mix=_uniform(rng, heads),
        )
    return HyperNetParams(w1=w1, w2=w2, attention=attn)


def init_hypergru_params(n: int, hidden: int = 32, attention: bool = False,
                         seed: int = 0) -> HyperGruParams:
    rng = np.random.default_rng(seed)
    width = hidden + n + 4
    w_update = _uniform(rng, hidden, width)
    w_reset = _uniform(rng, hidden, width)
    w_cand = _uniform(rng, hidden, width)
    w_out = _uniform(rng, hidden)
    attn = None
    if attention:
        attn = AttentionHead(_uniform(rng, hidden, hidden),
                             _uniform(rng, hidden, hidden))
    return HyperGruParams(w_update=w_update, w_reset=w_reset, w_cand=w_cand,
                          w_out=w_out, attention=attn)


def init_direct_params(layers: int, start_base: float = 0.9,
                       tied: bool = False) -> DirectDampingParams:
    """Logits initialized at the geometric schedule beta(t) = base^t."""
    beta0 = np.clip(start_base ** np.arange(1, layers + 1), 1e-3, 1.0 - 1e-3)
    logits = np.log(beta0 / (1.0 - beta0))
    return DirectDampingParams(logits_z=logits.copy(), logits_x=logits.copy(),
                               tied=tied)


def _named_arrays(params) -> list[tuple[str, np.ndarray]]:
    """Flattening order for each parameter bundle (fixed and documented)."""
    if isinstance(params, DirectDampingParams):
        if params.tied:
            return [("logits_z", params.logits_z)]
        return [("logits_z", params.logits_z), ("logits_x", params.logits_x)]
    if isinstance(params, HyperNetParams):
        out = [("w1", params.w1), ("w2", params.w2)]
        if params.attention is not None:
            for i, head in enumerate(params.attention.heads):
                out.append((f"head{i}_w_b", head.w_b))
                out.append((f"head{i}_w_c", head.w_c))
            out.append(("mix", params.attention.mix))
        return out
    if isinstance(params, HyperGruParams):
        out = [("w_update", params.w_update), ("w_reset", params.w_reset),
               ("w_cand", params.w_cand), ("w_out", params.w_out)]
        if params.attention is not None:
            out.append(("attn_w_b", params.attention.w_b))
            out.append(("attn_w_c", params.attention.w_c))
        return out
    raise TypeError(f"unsupported parameter bundle {type(params).__name__}")


def params_to_vector(params) -> np.ndarray:
    """Flatten a parameter bundle to one real vector (row-major pieces)."""
    return np.concatenate([a.ravel() for _, a in _named_arrays(params)])


def params_from_vector(template, vector: np.ndarray):
    """Rebuild a bundle shaped like `template` from a flat vector."""
    out = copy.deepcopy(template)
    arrays = [arr for _, arr in _named_arrays(out)]
    count = sum(arr.size for arr in arrays)
    if vector.size != count:
        raise ValueError(f"vector length {vector.size} does not match "
                         f"parameter count {count}")
    offset = 0
    for arr in arrays:
        arr[...] = vector[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return out


# Each controller variant's weight family and attention flag.  HyperGruParams
# is the only recurrent family; the others generate a fixed number of layers.
VARIANTS = {"net_direct": (DirectDampingParams, False),
            "hypernet": (HyperNetParams, False),
            "hypernet_attn": (HyperNetParams, True),
            "hypergru": (HyperGruParams, False),
            "hypergru_attn": (HyperGruParams, True)}
CHECKPOINT_FORMAT = "gecsr-checkpoint-v1"


def init_variant_params(variant: str, n: int, layers: int, hidden: int = 32,
                        heads: int = 4, tied: bool = False, seed: int = 0,
                        direct_init_base: float = 0.9):
    """Fresh parameter bundle for a named controller variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected {tuple(VARIANTS)}")
    family, attention = VARIANTS[variant]
    if family is DirectDampingParams:
        return init_direct_params(layers, start_base=direct_init_base, tied=tied)
    if family is HyperNetParams:
        return init_hypernet_params(n, layers, hidden, heads=heads,
                                    attention=attention, seed=seed)
    return init_hypergru_params(n, hidden, attention=attention, seed=seed)


_POLICIES = {DirectDampingParams: DirectSchedulePolicy,
             HyperNetParams: StaticHyperNetPolicy,
             HyperGruParams: HyperGruPolicy}


def policy_for_params(params) -> DampingPolicy:
    policy_class = _POLICIES.get(type(params))
    if policy_class is None:
        raise TypeError(f"unsupported parameter bundle {type(params).__name__}")
    return policy_class(params)


def checkpoint_payload(variant: str, params, n: int, layers: int,
                       metadata: Optional[dict] = None) -> dict:
    """Assemble the JSON-serializable checkpoint structure.

    The variant label must name the bundle's weight family and attention
    flag (see VARIANTS), as `params_from_checkpoint` will read it.
    """
    attention = getattr(params, "attention", None) is not None
    if VARIANTS.get(variant) != (type(params), attention):
        raise CheckpointError(f"variant {variant!r} does not describe a "
                              f"{type(params).__name__} bundle "
                              f"{'with' if attention else 'without'} attention")
    arrays = {}
    for name, arr in _named_arrays(params):
        arrays[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    payload = {
        "format": CHECKPOINT_FORMAT,
        "variant": variant,
        "n": n,
        "layers": layers,
        "hidden": getattr(params, "hidden", 0),
        "heads": (len(params.attention.heads)
                  if isinstance(params, HyperNetParams) and attention else int(attention)),
        "tied": getattr(params, "tied", False),
        "arrays": arrays,
        "metadata": metadata or {},
    }
    # Marks the residual attention form; older hypernet_attn files without
    # it hold the retired pure mix.
    if variant == "hypernet_attn":
        payload["residual"] = True
    return payload


def save_checkpoint(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    for key in ("format", "variant", "n", "layers", "arrays"):
        if key not in payload:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    if payload["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {payload['format']!r}; "
                              f"expected {CHECKPOINT_FORMAT!r}")
    if payload["variant"] not in VARIANTS:
        raise CheckpointError(f"unknown checkpoint variant {payload['variant']!r}")
    return payload


def params_from_checkpoint(payload: dict):
    """Materialize the parameter bundle stored in a checkpoint.

    The header (variant, n, layers, hidden, heads, tied, and for
    hypernet_attn the residual flag) fixes the layout;
    the file must hold exactly its arrays, each with the implied shape and
    finite values only (JSON readers accept NaN and Infinity tokens).
    """
    variant = payload["variant"]
    if variant == "hypernet_attn" and "residual" not in payload:
        raise CheckpointError("hypernet_attn checkpoint has no 'residual' field: it "
                              "holds the retired pure-mix attention form")
    if "residual" in payload and (variant != "hypernet_attn"
                                  or payload["residual"] is not True):
        raise CheckpointError(f"checkpoint field 'residual' must be true and "
                              f"belongs to hypernet_attn only, got "
                              f"{payload['residual']!r} for {variant!r}")
    template = init_variant_params(
        variant, int(payload["n"]), int(payload["layers"]),
        hidden=int(payload.get("hidden", 0)), heads=int(payload.get("heads", 0)),
        tied=bool(payload.get("tied", False)))
    layout = _named_arrays(template)
    pieces = []
    for name, arr in layout:
        try:
            entry = payload["arrays"][name]
            shape = tuple(entry["shape"])
            data = np.asarray(entry["data"], dtype=float).ravel()
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint array {name!r} malformed") from exc
        if shape != arr.shape or data.size != arr.size:
            raise CheckpointError(
                f"checkpoint array {name!r} has shape {list(shape)} with "
                f"{data.size} values; the header implies {list(arr.shape)}")
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"checkpoint array {name!r} holds non-finite values")
        pieces.append(data)
    extra = sorted(set(payload["arrays"]) - {name for name, _ in layout})
    if extra:
        raise CheckpointError(f"unexpected checkpoint arrays {extra} for this header")
    return params_from_vector(template, np.concatenate(pieces))
