"""Secret sharing and Secure Average Computation (SAC).

Implements the paper's Alg. 1 (additive share splitting), Alg. 2 (SAC,
n-out-of-n) and Alg. 4 (fault-tolerant SAC with k-out-of-n replicated
additive secret sharing), both as pure NumPy functions (:mod:`.sac`,
:mod:`.fault_tolerant`) and as message-passing actors on the simulated
network (:mod:`.protocol`) for byte accounting and mid-round dropout
injection.
"""

from .additive import (
    divide,
    divide_zero_sum,
    reconstruct,
)
from .errors import SacAbort, SacReconstructionError
from .fault_tolerant import (
    FtSacResult,
    expected_ft_sac_bits,
    fault_tolerant_sac,
)
from .fixed_point import (
    decode_fixed_point,
    divide_ring,
    encode_fixed_point,
    sac_average_fixed_point,
)
from .protocol import ActorRoundResult, run_sac_protocol, sac_reference_average
from .replicated import (
    holders_of_share,
    seeded_exchange_entry_counts,
    shares_held_by,
)
from .sac import SHARE_CODECS, SacResult, sac_average
from .seedshare import (
    SEED_SHARE_BITS,
    SeededShares,
    SeedShare,
    seeded_ring_shares,
    seeded_zero_sum_shares,
)
from .shamir import (
    reconstruct_secret,
    shamir_cost_bits,
    shamir_sac_average,
    share_secret,
)

__all__ = [
    "divide",
    "divide_zero_sum",
    "reconstruct",
    "SacAbort",
    "SacReconstructionError",
    "sac_average",
    "SacResult",
    "fault_tolerant_sac",
    "FtSacResult",
    "shares_held_by",
    "holders_of_share",
    "encode_fixed_point",
    "decode_fixed_point",
    "divide_ring",
    "sac_average_fixed_point",
    "share_secret",
    "reconstruct_secret",
    "shamir_sac_average",
    "shamir_cost_bits",
    "run_sac_protocol",
    "sac_reference_average",
    "ActorRoundResult",
    "SHARE_CODECS",
    "SEED_SHARE_BITS",
    "SeedShare",
    "SeededShares",
    "seeded_zero_sum_shares",
    "seeded_ring_shares",
    "seeded_exchange_entry_counts",
    "expected_ft_sac_bits",
]
