"""repro.nn — a from-scratch numpy autograd framework (PyTorch substitute).

Public surface::

    from repro import nn
    x = nn.Tensor([[1.0, 2.0]], requires_grad=True)
    layer = nn.Linear(2, 3)
    loss = nn.cross_entropy(layer(x), np.array([1]))
    loss.backward()

Execution is layered:

* **Autograd graph** (:mod:`repro.nn.tensor`): every op records a backward
  closure; call ``.backward()`` on a scalar loss.  This is the training
  path.
* **Graph-free fast path**: inside ``nn.no_grad()`` or
  ``nn.inference_mode()`` ops skip closure allocation entirely and return
  bare tensors.  ``inference_mode()`` additionally lets modules reuse
  shape-keyed scratch buffers (:class:`~repro.nn.backend.Workspace`), so
  outputs may alias internal storage until the next forward call — copy
  what you keep (``repro.core.predict`` does).
* **Array backend** (:mod:`repro.nn.backend`): the nine kernels worth
  timing (matmul, einsum, the fused linear family, softmax/log-softmax,
  layer-norm, the im2col lowering) go through the one
  :class:`~repro.nn.backend.ArrayBackend`; ``nn.use_backend(...)``
  installs a subclass (e.g. :class:`repro.obs.ProfilingBackend`) for a
  scope.  Everything else is plain numpy.
"""

from . import init, ops
from .backend import ArrayBackend, Workspace, get_backend, use_backend
from .losses import accuracy, cross_entropy, kl_divergence
from .modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    LayerNorm,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
)
from .optim import Adam, DecayingLR, Optimizer, clip_grad_norm
from .quantize import (
    QuantizedConv2d,
    QuantizedLinear,
    dequantize_array,
    is_quantized,
    quantize_array,
    quantize_module,
)
from .serialization import (
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
    state_dict_from_bytes,
    state_dict_num_bytes,
    state_dict_to_bytes,
)
from .tensor import (
    Tensor,
    as_tensor,
    concat,
    inference_mode,
    is_grad_enabled,
    is_inference,
    no_grad,
    stack,
    where,
    zeros,
)

__all__ = [
    "Adam",
    "ArrayBackend",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "DecayingLR",
    "Dropout",
    "Flatten",
    "LayerNorm",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Optimizer",
    "Parameter",
    "QuantizedConv2d",
    "QuantizedLinear",
    "ReLU",
    "Sequential",
    "Tensor",
    "Workspace",
    "accuracy",
    "as_tensor",
    "checkpoint_path",
    "clip_grad_norm",
    "concat",
    "cross_entropy",
    "dequantize_array",
    "get_backend",
    "inference_mode",
    "init",
    "is_grad_enabled",
    "is_inference",
    "is_quantized",
    "kl_divergence",
    "load_checkpoint",
    "no_grad",
    "ops",
    "quantize_array",
    "quantize_module",
    "save_checkpoint",
    "stack",
    "state_dict_from_bytes",
    "state_dict_num_bytes",
    "state_dict_to_bytes",
    "use_backend",
    "where",
    "zeros",
]
