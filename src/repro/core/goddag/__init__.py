"""KyGODDAG: the paper's data structure for multihierarchical XML.

Public surface:

* :class:`~repro.core.goddag.goddag.KyGoddag` — build via
  :meth:`KyGoddag.build` from a
  :class:`~repro.cmh.document.MultihierarchicalDocument`.
* :mod:`~repro.core.goddag.axes` — the 12 standard and 7 extended axes.
* :mod:`~repro.core.goddag.joins` — set-at-a-time interval joins for
  the extended axes (DESIGN.md §11).
* :mod:`~repro.core.goddag.render` — XML/DOT/outline rendering.
* :mod:`~repro.core.goddag.stats` — node/edge inventory (Figure 2).
* :class:`~repro.core.goddag.temp.TemporaryHierarchyManager` — the
  ``analyze-string`` hierarchies of one evaluation, made on its shell
  (:meth:`KyGoddag.shell`).
"""

from repro.core.goddag.goddag import KyGoddag
from repro.core.goddag.nodes import (
    GAttr,
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GRoot,
    GText,
)
from repro.core.goddag.axes import (
    AXES,
    EXTENDED_AXES,
    evaluate_axis,
    evaluate_axis_batch,
)
from repro.core.goddag.joins import (
    JOIN_KERNELS,
    ColumnarNodeSet,
    exists_axis_batch,
    join_axis_batch,
)
from repro.core.goddag.okeys import corpus_sort_order, merge_shard_okeys
from repro.core.goddag.render import describe, serialize_node, to_dot
from repro.core.goddag.stats import GoddagStats, collect
from repro.core.goddag.temp import TemporaryHierarchyManager

__all__ = [
    "KyGoddag",
    "GNode",
    "GRoot",
    "GElement",
    "GText",
    "GLeaf",
    "GAttr",
    "GComment",
    "GPi",
    "AXES",
    "EXTENDED_AXES",
    "JOIN_KERNELS",
    "ColumnarNodeSet",
    "evaluate_axis",
    "evaluate_axis_batch",
    "exists_axis_batch",
    "join_axis_batch",
    "corpus_sort_order",
    "merge_shard_okeys",
    "serialize_node",
    "to_dot",
    "describe",
    "GoddagStats",
    "collect",
    "TemporaryHierarchyManager",
]
