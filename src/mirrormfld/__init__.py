"""Mirror mean-field Langevin particle dynamics on constrained domains.

Subpackage map:

* ``geometry``   -- mirror maps (simplex entropy barrier, box log barrier)
* ``objectives`` -- mean-field functionals with first-variation oracles
* ``dynamics``   -- the mirror sampler, projected baseline and plain MFLD
* ``oracle``     -- exact grid ground truth on the 2-simplex
* ``theory``     -- convergence-bound calculators
* ``config``/``runner``/``cli`` -- experiment harness
"""

__version__ = "0.1.0"

from .dynamics import (  # noqa: F401
    ParticleEnsemble,
    SamplerConfig,
    initial_ensemble,
    inner_diffusion,
    project_simplex,
    run_sampler,
)
from .geometry import (  # noqa: F401
    BoxLogBarrierMap,
    SimplexEntropyMap,
)
from .objectives import (  # noqa: F401
    LinearPotential,
    MeanMatchBarrier,
    NetworkRisk,
    first_variation_grad,
    lift_identity_check,
    load_dataset,
)
