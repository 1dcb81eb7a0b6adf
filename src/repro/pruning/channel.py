"""Channel-wise filter pruning for the Split-CNN / Split-SNN baselines.

NNFacet and EC-SNN shrink their per-class sub-models with filter pruning in
the style of Network Trimming (Hu et al., 2016): filters whose activations
are weakest on a probe batch are removed, uniformly across conv layers.
This module implements that surgery for our VGG and ConvSNN models so the
baseline comparison in Table III / Fig. 7 follows the same protocol as the
original systems.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..models.snn import ConvSNN, SNNConfig
from ..models.vgg import VGG, VGGConfig


def _keep_count(original: int, ratio: float) -> int:
    return max(1, int(round(original * ratio)))


# ----------------------------------------------------------------------
# VGG
# ----------------------------------------------------------------------
def vgg_filter_activations(model: VGG, x: np.ndarray) -> list[np.ndarray]:
    """Mean |activation| per filter for each conv layer, on a probe batch."""
    scores: list[np.ndarray] = []
    with nn.no_grad():
        out = nn.Tensor(x)
        for layer in model.features:
            out = layer(out)
            if isinstance(layer, nn.Conv2d):
                scores.append(np.abs(out.data).mean(axis=(0, 2, 3)))
    return scores


def prune_vgg(model: VGG, keep_ratio: float, probe_x: np.ndarray) -> VGG:
    """Filter-prune every conv layer of a VGG to ``keep_ratio`` width."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError("keep_ratio must be in (0, 1]")
    cfg = model.config
    activations = vgg_filter_activations(model, probe_x)

    # Select kept filters per conv layer.
    keeps: list[np.ndarray] = []
    for act in activations:
        count = _keep_count(len(act), keep_ratio)
        keeps.append(np.sort(np.argsort(act)[-count:]))

    # Build the pruned architecture via a plan override so the new model's
    # config keeps describing the true widths (vgg_flops stays
    # correct).  The classifier hidden width shrinks from the *actual*
    # trained width by keep_ratio.
    width_iter = iter(len(k) for k in keeps)
    override = tuple(entry if entry == "M" else next(width_iter)
                     for entry in cfg.scaled_plan())
    old_hidden = list(model.classifier)[1].out_features
    new_hidden = max(8, int(round(old_hidden * keep_ratio)))
    new_cfg = dataclasses.replace(cfg, name=f"{cfg.name}-pruned",
                                  plan_override=override, width_scale=1.0,
                                  classifier_hidden=new_hidden)
    new = VGG(new_cfg)

    # Copy surviving weights.
    prev_keep: np.ndarray | None = None
    conv_idx = 0
    old_layers = list(model.features)
    new_layers = list(new.features)
    for old_layer, new_layer in zip(old_layers, new_layers):
        if isinstance(old_layer, nn.Conv2d):
            keep = keeps[conv_idx]
            w = old_layer.weight.data[keep]
            if prev_keep is not None:
                w = w[:, prev_keep]
            new_layer.weight.data = w.copy()
            new_layer.bias.data = old_layer.bias.data[keep].copy()
            prev_keep = keep
            conv_idx += 1
        elif isinstance(old_layer, nn.BatchNorm2d):
            keep = keeps[conv_idx - 1]
            new_layer.weight.data = old_layer.weight.data[keep].copy()
            new_layer.bias.data = old_layer.bias.data[keep].copy()
            np.copyto(new_layer.running_mean, old_layer.running_mean[keep])
            np.copyto(new_layer.running_var, old_layer.running_var[keep])

    # Classifier: the first linear reads flattened (C, S, S) features, so
    # keep the spatial block of every surviving channel.
    num_pools = sum(1 for e in cfg.scaled_plan() if e == "M")
    spatial = cfg.image_size // (2 ** num_pools)
    flat_keep = (prev_keep[:, None] * spatial * spatial
                 + np.arange(spatial * spatial)[None, :]).reshape(-1)

    old_cls = list(model.classifier)
    new_cls = list(new.classifier)
    old_fc1, old_fc2, old_fc3 = old_cls[1], old_cls[3], old_cls[5]
    new_fc1, new_fc2, new_fc3 = new_cls[1], new_cls[3], new_cls[5]
    hidden_keep = _hidden_keep(old_fc1, probe_count=new_fc1.out_features)
    new_fc1.weight.data = old_fc1.weight.data[hidden_keep][:, flat_keep].copy()
    new_fc1.bias.data = old_fc1.bias.data[hidden_keep].copy()
    hidden_keep2 = _hidden_keep(old_fc2, probe_count=new_fc2.out_features)
    new_fc2.weight.data = old_fc2.weight.data[hidden_keep2][:, hidden_keep].copy()
    new_fc2.bias.data = old_fc2.bias.data[hidden_keep2].copy()
    new_fc3.weight.data = old_fc3.weight.data[:, hidden_keep2].copy()
    new_fc3.bias.data = old_fc3.bias.data.copy()
    return new


def _hidden_keep(fc: nn.Linear, probe_count: int) -> np.ndarray:
    """Keep the ``probe_count`` highest-magnitude rows of a linear layer."""
    scores = np.abs(fc.weight.data).sum(axis=1) + np.abs(fc.bias.data)
    return np.sort(np.argsort(scores)[-probe_count:])



# ----------------------------------------------------------------------
# ConvSNN
# ----------------------------------------------------------------------
def snn_filter_activations(model: ConvSNN, x: np.ndarray) -> list[np.ndarray]:
    """Mean spike rate per filter for each LIF conv layer on a probe batch."""
    rates = [np.zeros(layer.conv.out_channels) for layer in model.lif_layers]
    with nn.no_grad():
        model.reset_states()
        for _ in range(model.config.time_steps):
            out = nn.Tensor(x)
            for i, layer in enumerate(model.lif_layers):
                out = layer(out)
                rates[i] += out.data.mean(axis=(0, 2, 3))
                out = model.pool(out)
    return [r / model.config.time_steps for r in rates]


def prune_snn(model: ConvSNN, keep_ratio: float, probe_x: np.ndarray) -> ConvSNN:
    """Filter-prune every LIF conv layer of a ConvSNN to ``keep_ratio``."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError("keep_ratio must be in (0, 1]")
    cfg = model.config
    rates = snn_filter_activations(model, probe_x)
    keeps = [np.sort(np.argsort(r)[-_keep_count(len(r), keep_ratio):])
             for r in rates]

    new_channels = tuple(len(k) for k in keeps)
    new_cfg = SNNConfig(
        image_size=cfg.image_size, in_channels=cfg.in_channels,
        num_classes=cfg.num_classes, channels=new_channels,
        time_steps=cfg.time_steps, decay=cfg.decay, threshold=cfg.threshold,
        classifier_hidden=max(8, int(round(model.fc_hidden.out_features
                                           * keep_ratio))),
        width_scale=1.0, name=f"{cfg.name}-pruned")
    new = ConvSNN(new_cfg)

    prev_keep: np.ndarray | None = None
    for old_layer, new_layer, keep in zip(model.lif_layers, new.lif_layers, keeps):
        w = old_layer.conv.weight.data[keep]
        if prev_keep is not None:
            w = w[:, prev_keep]
        new_layer.conv.weight.data = w.copy()
        new_layer.conv.bias.data = old_layer.conv.bias.data[keep].copy()
        prev_keep = keep

    spatial = cfg.image_size // (2 ** len(cfg.scaled_channels()))
    flat_keep = (prev_keep[:, None] * spatial * spatial
                 + np.arange(spatial * spatial)[None, :]).reshape(-1)
    hidden_keep = _hidden_keep(model.fc_hidden, new.fc_hidden.out_features)
    new.fc_hidden.weight.data = model.fc_hidden.weight.data[hidden_keep][:, flat_keep].copy()
    new.fc_hidden.bias.data = model.fc_hidden.bias.data[hidden_keep].copy()
    new.fc_out.weight.data = model.fc_out.weight.data[:, hidden_keep].copy()
    new.fc_out.bias.data = model.fc_out.bias.data.copy()
    return new
