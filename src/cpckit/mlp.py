"""Fully-connected feature extractor with optional residual blocks.

Blocks come in three kinds, named by their arch tokens; H(x) = relu(W x + b):

    fc      (PLAIN)            x -> H(x)
    add     (RESIDUAL_ADD)     x -> H(x) + x   (hidden width must equal input width)
    concat  (RESIDUAL_CONCAT)  x -> [H(x), x]  (widths add)

A linear head produces class scores; training minimizes mean cross-entropy
with the momentum-SGD loop of the linear classifiers, per-epoch
learning-rate decay, and inverted dropout applied to H(x) before the skip
connection merges back in.
Backward passes are exact analytic gradients, checked against central
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .classifiers import _momentum_sgd, check_sgd
from .dataset import LabeledDataset, check_count
from .errors import BadArch, DimMismatch, EmptyDataset, NumericalError

PLAIN = "fc"
RESIDUAL_ADD = "add"
RESIDUAL_CONCAT = "concat"

RELU = "relu"  # the one activation; model files name it

LR_DECAY_PER_EPOCH = 0.95  # training multiplies the learning rate by this each epoch


@dataclass(frozen=True)
class BlockSpec:
    kind: str
    hidden_width: int

    def __post_init__(self):
        if self.kind not in (PLAIN, RESIDUAL_ADD, RESIDUAL_CONCAT):
            raise BadArch(f"unknown block kind {self.kind!r}")
        check_count("hidden_width", self.hidden_width, 1, BadArch)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.5
    dropout: float = 0.2
    batch_size: int = 128
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        check_sgd(self, BadArch)
        if not 0 <= self.dropout < 1:
            raise BadArch("dropout must lie in [0, 1)")


@dataclass
class MlpModel:
    input_dim: int
    block_specs: list[BlockSpec]
    class_count: int
    weights: list[np.ndarray]  # per block, (hidden, in_width)
    biases: list[np.ndarray]
    head_w: np.ndarray  # (class_count, last block's output width)
    head_b: np.ndarray
    feature_tap: int  # block index whose output is exported as features


def block_widths(input_dim: int, blocks: list[BlockSpec]) -> list[int]:
    """Output width after each block; raises on width-algebra violations."""
    w = input_dim
    out = []
    for spec in blocks:
        if spec.kind == PLAIN:
            w = spec.hidden_width
        elif spec.kind == RESIDUAL_ADD:
            if spec.hidden_width != w:
                raise BadArch(
                    f"an add block needs hidden width {w} to match its input, "
                    f"got {spec.hidden_width}"
                )
        else:
            w = spec.hidden_width + w
        out.append(w)
    return out


def check_arch(input_dim: int, blocks: list[BlockSpec], class_count: int,
               feature_tap: int | None = None) -> list[int]:
    """block_widths of an arch and tap build_mlp accepts; else BadArch."""
    if input_dim < 1:
        raise BadArch("input_dim must be at least 1")
    if class_count < 2:
        raise BadArch("need at least two classes")
    if not blocks:
        raise BadArch("need at least one block")
    if feature_tap is not None and not 0 <= feature_tap < len(blocks):
        raise BadArch(f"feature_tap {feature_tap} outside [0, {len(blocks)})")
    return block_widths(input_dim, blocks)


def build_mlp(
    input_dim: int,
    blocks: list[BlockSpec],
    class_count: int,
    seed: int = 0,
    feature_tap: int | None = None,
) -> MlpModel:
    """Construct a model with uniform +/- sqrt(6 / (fan_in + fan_out)) weights
    and zero biases. feature_tap defaults to the last block."""
    widths = check_arch(input_dim, blocks, class_count, feature_tap)
    if feature_tap is None:
        feature_tap = len(blocks) - 1

    rng = np.random.default_rng(seed)

    def glorot(fan_out, fan_in):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    weights, biases = [], []
    w_in = input_dim
    for spec, w_out in zip(blocks, widths):
        weights.append(glorot(spec.hidden_width, w_in))
        biases.append(np.zeros(spec.hidden_width))
        w_in = w_out
    head_w = glorot(class_count, widths[-1])
    head_b = np.zeros(class_count)
    return MlpModel(
        input_dim=input_dim,
        block_specs=list(blocks),
        class_count=class_count,
        weights=weights,
        biases=biases,
        head_w=head_w,
        head_b=head_b,
        feature_tap=feature_tap,
    )


# architecture strings: "in:8 concat:16 concat:16 fc:32 head:4" ----------

def parse_arch(text: str) -> tuple[int, list[BlockSpec], int]:
    tokens = text.split()
    if len(tokens) < 3:
        raise BadArch(f"arch {text!r} needs in:, at least one block, and head:")
    parsed = []
    for tok in tokens:
        name, _, num = tok.partition(":")
        try:
            width = int(num)
        except ValueError:
            raise BadArch(f"bad token {tok!r} in arch string") from None
        parsed.append((name, width))
    if parsed[0][0] != "in" or parsed[-1][0] != "head":
        raise BadArch("arch string must start with in: and end with head:")
    blocks = [BlockSpec(name, width) for name, width in parsed[1:-1]]
    return parsed[0][1], blocks, parsed[-1][1]


def format_arch(m: MlpModel) -> str:
    middle = " ".join(f"{s.kind}:{s.hidden_width}" for s in m.block_specs)
    return f"in:{m.input_dim} {middle} head:{m.class_count}"


# forward / backward ------------------------------------------------------

def _forward_batch(m, X, dropout=0.0, rng=None):
    """Returns (scores, block_outputs, caches), a cache per block holding
    (x, z, mask): its input, pre-activation and dropout mask, or None. A
    positive dropout with an rng is training and draws masks; scaling is
    inverted so evaluation needs no correction. ReLU and dropout run on the
    block's own contiguous array, which a concat block then copies into its
    output; the mask is (u >= dropout) as floats times 1 / (1 - dropout),
    which holds the bits of (u >= dropout) / (1 - dropout), since 1.0 c = c."""
    caches = []
    outputs = []
    x = X
    for spec, W, b in zip(m.block_specs, m.weights, m.biases):
        z = x.dot(W.T)
        z += b
        out = np.maximum(z, 0.0)
        mask = None
        if dropout > 0.0 and rng is not None:
            mask = rng.random(out.shape)
            np.greater_equal(mask, dropout, out=mask)
            mask *= 1.0 / (1.0 - dropout)
            out *= mask
        if spec.kind == RESIDUAL_ADD:
            out += x
        elif spec.kind == RESIDUAL_CONCAT:
            out = np.concatenate((out, x), axis=1)
        caches.append((x, z, mask))
        outputs.append(out)
        x = out
    scores = x.dot(m.head_w.T)
    scores += m.head_b
    return scores, outputs, caches


def _params(m: MlpModel) -> list[np.ndarray]:
    """The model's parameter arrays, in the order of its gradients."""
    return m.weights + m.biases + [m.head_w, m.head_b]


def _with_params(m: MlpModel, arrays) -> MlpModel:
    """A copy of m holding arrays, in the order of _params(m)."""
    n = len(m.weights)
    return replace(m, weights=list(arrays[:n]), biases=list(arrays[n:2 * n]),
                   head_w=arrays[-2], head_b=arrays[-1])


def _views(flat, like):
    """Arrays shaped as those of like, in order, viewing consecutive parts of flat."""
    ends = np.cumsum([p.size for p in like])
    return [part.reshape(p.shape) for part, p in zip(np.split(flat, ends[:-1]), like)]


def loss_and_gradients(m, X, y, dropout=0.0, rng=None, out=None):
    """Mean cross-entropy over the batch and its exact parameter gradients,
    both from one softmax of the scores, run in place. The gradients come as
    a list in the order of _params(m): out, written in place, when given
    (train passes views of its flat gradient vector), else fresh arrays.
    Either way every product and sum runs on the same operands in the same
    order, so they hold the same bits. The backward pass overwrites each
    block's cached z and mask: z becomes the ReLU derivative, z > 0 as
    floats, and the gradient of z is that times (the output gradient times
    the mask), products by exact ones and zeros in the order of the plain
    formula."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    scores, outputs, caches = _forward_batch(m, X, dropout=dropout, rng=rng)
    n, C = scores.shape
    scores -= reduce(np.maximum, scores.T)[:, None]  # the row max, column by column
    at = np.arange(0, n * C, C) + y  # each row's label entry in scores, flat
    picked = scores.reshape(-1)[at]
    g = np.exp(scores, out=scores)
    rowsum = np.add.reduce(g, axis=1, keepdims=True)
    loss = float(np.add.reduce(np.log(rowsum[:, 0]) - picked) / n)  # np.mean's bits
    g /= rowsum
    g.reshape(-1)[at] -= 1.0
    g /= n  # d loss / d scores

    out = out or [np.empty_like(p) for p in _params(m)]
    L = len(caches)
    np.matmul(g.T, outputs[-1], out=out[-2])
    np.add.reduce(g, axis=0, out=out[-1])
    g_x = g.dot(m.head_w)
    for i in range(L - 1, -1, -1):
        x_in, g_z, mask = caches[i]
        h = g_z.shape[1]
        kind = m.block_specs[i].kind
        if kind == PLAIN:
            g_a, g_skip = g_x, 0.0
        elif kind == RESIDUAL_ADD:
            g_a, g_skip = g_x, g_x
        else:
            g_a, g_skip = g_x[:, :h], g_x[:, h:]
        np.greater(g_z, 0.0, out=g_z)  # z is read no more
        if mask is not None:
            g_a = np.multiply(g_a, mask, out=mask)
        g_z *= g_a
        np.matmul(g_z.T, x_in, out=out[i])
        np.add.reduce(g_z, axis=0, out=out[L + i])
        if i:  # nothing reads the gradient of the network's input
            g_x = g_z.dot(m.weights[i])
            g_x += g_skip
    return loss, out


def train(m: MlpModel, ds: LabeledDataset, cfg: TrainConfig) -> tuple[MlpModel, list[float]]:
    """SGD with momentum and per-epoch lr decay by LR_DECAY_PER_EPOCH.
    Returns a new model and the per-epoch mean batch loss; raises Divergence
    if the loss leaves the finite range and EmptyDataset on an empty
    dataset. epochs=0 returns an unchanged copy.

    The new model's weights, biases and head are views of one flat float64
    vector, and the gradients are written into views of a second, so each
    momentum step moves one array, elementwise, as it moved each alone."""
    if ds.d != m.input_dim:
        raise DimMismatch(f"model expects d={m.input_dim}, dataset has d={ds.d}")
    if ds.n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if ds.labels.max() >= m.class_count:
        raise DimMismatch("dataset labels exceed the model head width")
    params = _params(m)
    flat = np.concatenate([p.ravel() for p in params])
    grads = np.empty_like(flat)
    model, views = _with_params(m, _views(flat, params)), _views(grads, params)
    rng = np.random.default_rng(cfg.seed)

    def grad(rows, _):
        loss, _ = loss_and_gradients(model, ds.features.take(rows[0], axis=0),
                                     ds.labels.take(rows[0]), cfg.dropout, rng, out=views)
        return loss, [grads]

    [trace] = _momentum_sgd(
        [flat],
        grad,
        [ds.n],
        cfg.epochs,
        cfg.batch_size,
        cfg.learning_rate,
        cfg.momentum,
        rngs=[rng],
        lr_decay=LR_DECAY_PER_EPOCH,
    )
    return model, trace


def fit_extractor(
    ds: LabeledDataset, arch: str, cfg: TrainConfig, feature_tap: int | None = None
) -> tuple[MlpModel, list[float]]:
    """The extractor stage: parse arch, check it against ds, build with
    cfg.seed and train. in: must equal ds.d and head: must be at least
    ds.class_count; raises BadArch otherwise."""
    input_dim, blocks, class_count = parse_arch(arch)
    if input_dim != ds.d:
        raise BadArch(f"arch expects in:{input_dim} but data has d={ds.d}")
    if class_count < ds.class_count:
        raise BadArch(f"arch head:{class_count} is narrower than {ds.class_count} classes")
    model = build_mlp(input_dim, blocks, class_count, seed=cfg.seed, feature_tap=feature_tap)
    return train(model, ds, cfg)


def extract_features(m: MlpModel, ds: LabeledDataset) -> LabeledDataset:
    """Evaluation-mode activations at feature_tap, labels carried through.
    Raises NumericalError when an activation there is not finite."""
    if ds.d != m.input_dim:
        raise DimMismatch(f"model expects d={m.input_dim}, dataset has d={ds.d}")
    with np.errstate(over="ignore", invalid="ignore"):
        _, outputs, _ = _forward_batch(m, ds.features)
    features = outputs[m.feature_tap]
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise NumericalError(f"extractor output row {row}, column {col} is {features[row, col]}")
    return replace(ds, features=features)


# serialization ------------------------------------------------------------

def mlp_to_json(m: MlpModel) -> dict:
    return {
        "arch": format_arch(m),
        "feature_tap": m.feature_tap,
        "activation": RELU,
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "head_w": m.head_w.tolist(),
        "head_b": m.head_b.tolist(),
    }


def mlp_from_json(obj: dict) -> MlpModel:
    """The model of mlp_to_json's dict. An arch or tap build_mlp refuses, or an
    activation other than relu, raises BadArch; a misshapen array, DimMismatch."""
    if obj.get("activation", RELU) != RELU:
        raise BadArch(f"unknown activation {obj['activation']!r}")
    m = build_mlp(*parse_arch(obj["arch"]), feature_tap=int(obj["feature_tap"]))
    arrays = [np.asarray(a, dtype=np.float64)
              for a in (*obj["weights"], *obj["biases"], obj["head_w"], obj["head_b"])]
    if [a.shape for a in arrays] != [p.shape for p in _params(m)]:
        raise DimMismatch(f"model arrays do not fit arch {obj['arch']!r}")
    return _with_params(m, arrays)
