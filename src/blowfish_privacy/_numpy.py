"""numpy, imported when the package first uses it.

Building or validating a policy, inducing an adjacency graph, the
closed-form bounds, the bound figure and the tightness sweep (which measures
its 6x6 kernel in Python floats) build no array, so importing the package
does not import numpy, and neither do they. Nor do the channel commands on a
small channel (``channel.small_channel``: at most ``PYTHON_CELLS`` cells,
counting a graph's edges as rows), nor ``channel generate`` on an
unconstrained policy of n >= 2 records at any size (both through
``channel.product_lines``), nor ``symmetrise run`` within
``symmetrise.PYTHON_AVERAGE_CELLS``: the group layer (stabiliser chains,
point orbits, lifting and the automorphism search) is pure Python at every
size. Modules bind ``np`` to the stand-in below instead of the module: its
first attribute read imports numpy through the normal import system, and
every attribute it reads is kept on the stand-in, so later reads are plain
attribute lookups. Type checkers see numpy itself.

``importlib.util.LazyLoader`` does not serve: ``import numpy as np`` reads
the lazy module's ``__spec__``, which loads it at once, and the loader
swaps the module in ``sys.modules`` under any program that imports ours.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
else:

    class _Numpy:
        """Stand-in for the numpy module; imports it on the first attribute read."""

        def __getattr__(self, name: str):
            import numpy

            value = getattr(numpy, name)
            setattr(self, name, value)
            return value

    np = _Numpy()
