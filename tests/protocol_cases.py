"""One test case per registered wire protocol.

The registry (:func:`repro.protocol.wire.protocol_names`) is the only list
of protocols: every case comes from the protocol's own ``for_workload``
constructor at one small shape, so a newly registered protocol joins every
suite that loops over these cases.
"""

import numpy as np

from repro.protocol.wire import protocol_class, protocol_names


def protocol_cases(num_users=800, domain_size=1 << 12, epsilon=4.0, seed=0):
    """``[(short_name, params)]`` for every registered protocol."""
    return [(name, protocol_class(name).for_workload(
                num_users, domain_size, epsilon,
                rng=np.random.default_rng(seed)))
            for name in protocol_names()]
