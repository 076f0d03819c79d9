"""fogsim: photon-counting fiber-optic gyroscope simulator and analysis toolkit.

Models the click statistics of a single-photon Sagnac interferometer as a
function of inter-path delay, generates realistic count time series,
reproduces the two-stage sensor calibration, and evaluates delay stability
against the shot-noise Cramér-Rao bound via overlapping Allan deviation.

Every name in the ``__all__`` of one of the six modules below is also a
``fogsim`` name; each is declared once, in its module.
"""

__version__ = "0.1.0"

from .calibration import *
from .config import *
from .geometry import *
from .model import *
from .simulate import *
from .stability import *

# importing a submodule binds its name here (Python reference, "Submodules")
__all__ = [name for module in (calibration, config, geometry, model, simulate, stability)
           for name in module.__all__]
