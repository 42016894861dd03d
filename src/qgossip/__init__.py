"""Gossip consensus on networks of quantum subsystems.

Classify states against the consensus hierarchy, evolve them under
quasi-local gossip channels, certify convergence spectrally, and check the
exact correspondence with classical gossip.
"""

from .classical import (ClassicalTrajectory, CorrespondenceResult,
                        classical_gossip_step, correspondence_run,
                        disagreement, run_classical)
from .consensus import (ConsensusReport, NogoReport, check_rsc, check_sigma_ec,
                        check_smc, check_ssc, classify, nogo_check,
                        pure_rsc_implies_ssc_check, rsc_iff_all_sigma_ec,
                        rsc_not_ssc_witness, smc_pairwise_gap, sym_projector)
from .errors import (CertificateError, ConsistencyError, DimensionError,
                     QGossipError, ResourceLimitError, ScenarioError,
                     ValidationError)
from .gossip import (ClassBlock, ConvergenceExperiment, GossipConfig, InteractionGraph,
                     SpectralCertificate, TrajectoryRecord, commutant_dimension,
                     dual_fixed_point_check, edge_schedule, evolve,
                     fixed_point_space, gossip_update,
                     probability_one_convergence_experiment, s_average_check,
                     spectral_certificate, synchronous_classes,
                     synchronous_superoperator)
from .linalg import (NetworkShape, eigh, frobenius_distance, kron, kron_all,
                     partial_trace)
from .scenario import RunManifest, Scenario, load_scenario
from .states import (DensityOperator, Observable, PAULI, basis_ket, lift_local,
                     named_state, random_density, rho_g, site_average, twirl,
                     twirl_matrix)

__version__ = "0.1.0"
