"""Comparator systems: Split-CNN (NNFacet) and Split-SNN (EC-SNN).

:func:`build_split` builds either from its trained backbone (a VGG or a
ConvSNN) and returns a :class:`repro.planning.PlannedSystem`, placed by
Algorithm 3 like ED-ViT.
"""

from .split import SplitConfig, build_split

__all__ = ["SplitConfig", "build_split"]
