"""Desk-scale simulation of a single-photon interferometric measurement of
the Pauli commutation relations: Jones-calculus optics, Poissonian photon
counting, and state/process tomography."""

from .errors import (CalibrationInconsistent, DegenerateScan, EmptyData, NotUnitary,
                     ZeroDenominator, ZeroProbability)
from .qubit import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, PureState, anticommutator,
                    apply, commutator, pauli, state_distances)
from .optics import (InterferometerConfig, Port, WavePlate, case_i, case_ii,
                     conditional_output_state, detection_probability, half_wave,
                     port_operator, prepare_state, quarter_wave, waveplate_matrix)
from .photon_stats import (CountRecord, DetectorModel, SourceModel, calibrate_phase,
                           derive_seed, expected_rate, fit_sinusoid, sample_counts)
from .tomography import (chi_of_unitary, process_fidelity, qpt_reconstruct,
                         qst_linear, qst_mle, tomography_settings)
from .experiments import (AngleNoiseCalibration, ExperimentReport, NoiseProfile,
                          calibrate_angle_noise, estimate_k_magnitude,
                          run_case_comparison, run_commutator_qpt, run_phase_of_k,
                          run_phase_scan)

__version__ = "0.1.0"
