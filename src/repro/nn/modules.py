"""Module system: composable layers with named parameters and state dicts.

Mirrors the ``torch.nn`` surface closely enough that the rest of the
reproduction (ViT, VGG, SNN, pruning) reads like the PyTorch code the paper
authors would have written.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from . import init, ops
from .backend import Workspace
from .tensor import Tensor


# Variance floor of LayerNorm and BatchNorm2d.
NORM_EPS = 1e-5
# Weight of the newest batch in BatchNorm2d's running statistics.
BN_MOMENTUM = 0.1


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network layers."""

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Registration through attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Inference workspace (scratch-buffer cache for the graph-free path)
    # ------------------------------------------------------------------
    @property
    def workspace(self) -> Workspace:
        """Lazily-created scratch cache handed to ops under ``inference_mode()``.

        Not part of the state dict; buffers are keyed by (tag, shape, dtype)
        and reused across forward calls — see :mod:`repro.nn.backend` for the
        aliasing invariants.
        """
        ws = self.__dict__.get("_workspace")
        if ws is None:
            ws = Workspace()
            object.__setattr__(self, "_workspace", ws)
        return ws

    def clear_workspaces(self) -> None:
        """Drop every cached scratch buffer in this module tree."""
        for module in self.modules():
            ws = module.__dict__.get("_workspace")
            if ws is not None:
                ws.clear()

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        yield from self._parameters.items()
        for name, module in self._modules.items():
            for sub, param in module.named_parameters():
                yield f"{name}.{sub}", param

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        yield from self._buffers.items()
        for name, module in self._modules.items():
            for sub, buf in module.named_buffers():
                yield f"{name}.{sub}", buf

    def named_modules(self) -> Iterator[tuple[str, "Module"]]:
        yield "", self
        for name, module in self._modules.items():
            for sub, child in module.named_modules():
                yield f"{name}.{sub}" if sub else name, child

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            # order="C" like ``ndarray.copy()`` above: a K-major buffer
            # must serialize to the same bytes as before it was served.
            state[name] = np.array(buf, copy=True, order="C")
        return state

    def load_state_dict(self, state, strict: bool = True,
                        adopt: bool = False) -> None:
        """Load parameters and buffers from ``(name, array)`` pairs.

        ``state`` is a mapping or any iterable of pairs; it is consumed
        once, in its own order, and each entry lands before the next is
        asked for — a generator that decodes (or receives) one array at a
        time never has two of them alive.  The array a slot held before
        is released as its replacement lands.

        ``adopt=True`` makes an entry that already has the slot's dtype
        and C order the slot's storage instead of a copy of it: for a
        caller that hands its arrays over and keeps no reference.
        """
        pairs = state.items() if hasattr(state, "items") else state
        # name -> (dtype, shape, bind).  ``bind`` rebinds the slot rather
        # than copying into the array it holds: backends may cache derived
        # layouts (e.g. packed transposes) keyed by array identity, and an
        # in-place overwrite would serve stale weights.  The table holds no
        # reference to that array, so rebinding is also its release.
        params = dict(self.named_parameters())
        slots = {name: (param.data.dtype, param.shape,
                        functools.partial(setattr, param, "data"))
                 for name, param in params.items()}
        for prefix, module in self.named_modules():
            for local, buf in module._buffers.items():
                slots[f"{prefix}.{local}" if prefix else local] = (
                    buf.dtype, buf.shape,
                    functools.partial(module.register_buffer, local))
        convert = np.asarray if adopt else np.array
        seen, extra = set(), []
        for name, value in pairs:
            seen.add(name)
            if name not in slots:
                extra.append(name)
                continue
            dtype, shape, bind = slots[name]
            value = convert(value, dtype=dtype, order="C")
            if value.shape != shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {shape}")
            bind(value)
        if strict:
            missing = [name for name in params if name not in seen]
            if missing:
                raise KeyError(f"missing keys in state dict: {missing}")
            if extra:
                raise KeyError(f"unexpected keys in state dict: {sorted(extra)}")

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer storing weight as (out_features, in_features)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform(rng, (out_features, in_features)))
        self.bias = Parameter(
            init.uniform(rng, 1.0 / np.sqrt(in_features), out_features))

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias, self.workspace)

    def train(self, mode: bool = True) -> "Module":
        if not mode:
            # eval() is where serving starts: change the layout here,
            # before a worker reports ready, not on its first request.
            self.kmajor_weight()
        return super().train(mode)

    def kmajor_weight(self) -> np.ndarray:
        """``weight.data``, rebound K-major (F-contiguous) if it is not.

        Same shape, same values, the parameter's only storage: ``x @ W.T``
        is then the NN GEMM on every backend and a row slice of ``W`` is a
        unit-stride column view of ``W.T``, so nothing derived is cached
        and nothing can go stale.  Whatever rebinds the parameter
        (``load_state_dict``, an optimizer step, pruning surgery) leaves a
        C-ordered array that the next call here converts again;
        ``state_dict()`` copies in C order either way.
        """
        weight = self.weight.data
        if not weight.flags.f_contiguous:
            weight = self.weight.data = np.asfortranarray(weight)
        return weight

    def infer(self, backend, x: np.ndarray, out=None,
              activation: str | None = None,
              rows: slice | None = None) -> np.ndarray:
        """Raw-array fast path with an optional fused activation epilogue.

        ``rows`` restricts the layer to a slice of its output features.
        Polymorphic with ``QuantizedLinear.infer`` so the ViT block
        schedule works unchanged on int8-surgered modules.
        """
        weight = self.kmajor_weight()
        bias = self.bias.data
        if rows is not None:
            weight = weight[rows]
            bias = bias[rows]
        return backend.linear_act(x, weight, bias, activation=activation,
                                  out=out)

    def __repr__(self):
        return f"Linear(in={self.in_features}, out={self.out_features})"


class LayerNorm(Module):
    """Layer normalization over the last dimension with affine params."""

    def __init__(self, normalized_shape: int):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.weight, self.bias, NORM_EPS, self.workspace)

    def infer(self, backend, x: np.ndarray, out=None) -> np.ndarray:
        """Raw-array fast path (cf. ``Linear.infer``)."""
        return backend.layer_norm(x, self.weight.data, self.bias.data,
                                  NORM_EPS, out=out)

    def __repr__(self):
        return f"LayerNorm({self.normalized_shape})"


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) inputs, lowered to im2col matmuls."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size),
                                 fan_in=fan_in))
        self.bias = Parameter(
            init.uniform(rng, 1.0 / np.sqrt(fan_in), out_channels))

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, self.stride, self.padding,
                          self.workspace)

    def infer_patches(self, backend, fields: np.ndarray,
                      out=None) -> np.ndarray:
        """Raw-array conv over already-gathered receptive fields.

        ``fields`` is ``(N, C*kh*kw)``, one row per output position; the
        result is ``(N, out_channels)`` with the bias added.  Polymorphic
        with ``QuantizedConv2d.infer_patches``.
        """
        return patch_gemm(backend, fields, self.weight.data, self.bias.data,
                          out)

    def __repr__(self):
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


def patch_gemm(backend, fields: np.ndarray, kernel: np.ndarray,
               bias: np.ndarray | None, out=None) -> np.ndarray:
    """``fields @ kernel.reshape(O, -1).T + bias`` as one backend GEMM."""
    y = backend.matmul(fields, kernel.reshape(kernel.shape[0], -1).T, out=out)
    if bias is not None:
        y += bias
    return y


class BatchNorm2d(Module):
    """Batch normalization over (N, C, H, W) with running statistics."""

    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = num_features
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return ops.batch_norm_2d(x, self.weight, self.bias,
                                 self.running_mean, self.running_var,
                                 self.training, BN_MOMENTUM, NORM_EPS)


class MaxPool2d(Module):
    """Max pooling with square, non-overlapping kernels."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return ops.max_pool2d(x, self.kernel_size, self.kernel_size,
                              self.workspace)


class AvgPool2d(Module):
    """Average pooling with square, non-overlapping kernels."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return ops.avg_pool2d(x, self.kernel_size, self.kernel_size,
                              self.workspace)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.0, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.p, self.training, self._rng)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    """Flatten every dimension after the batch one."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.flatten(x, 1)


class Sequential(Module):
    """Run layers in order; indexable and iterable like a list."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layer_list = []
        for i, layer in enumerate(layers):
            setattr(self, str(i), layer)
            self._layer_list.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layer_list:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layer_list)

    def __getitem__(self, idx: int) -> Module:
        return self._layer_list[idx]

    def __len__(self) -> int:
        return len(self._layer_list)


class ModuleList(Module):
    """A list of sub-modules whose parameters register with the parent."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

    def __len__(self) -> int:
        return len(self._items)
