"""Near-field holographic MIMO rate-splitting NOMA + sensing toolkit.

Library layout:

* geometry / channel: planar-array steering vectors, whole-trial multipath
  user channel draws, sensing targets and their radar-equation echo
  amplitudes.
* impairments: mutual coupling, phase noise, I/Q imbalance, CSI error, and
  the impaired channels of a trial.
* rates: RS-NOMA stream pricing (interference, SINR, rate, group split).
* sensing: echo SINR, detection probability, Fisher information, CRLBs.
* objective: the pricing kernel over both, price_design for one design
  point, the interference-free sum-rate ceiling.
* optimizers: HAO-SCA block-coordinate ascent, E-WMMSE, FP baseline.
* stats: t/F distributions, tests, effect sizes, confidence intervals.
* experiments / records: seeded Monte Carlo driver and result files.
* config / cli: scenario configs, presets, and the batch front end
  (``holo_isac.cli`` is not imported here, so ``python -m holo_isac.cli``
  runs it cleanly).
"""

from .geometry import (ArrayGeometry, array_response, element_distance,
                       fresnel_distance, steering_derivative)
from .channel import (PathSampler, SensingTarget, draw_channels,
                      echo_amplitude, free_space_beta)
from .impairments import (ImpairmentChain, PhaseNoiseState, coupling_matrix,
                          effective_channel, inject_csi_error, iq_coefficients,
                          irr_db, phase_noise_from_dbc, phase_noise_init,
                          phase_noise_step, solve_iq_for_irr)
from .rates import (Grouping, RateBreakdown, RsNomaSolution, default_grouping,
                    rate_breakdown)
from .sensing import (SensingEvaluation, SensingScene, crlb_closed_form,
                      crlb_lower_bound, detection_probability,
                      fisher_information, q_function, q_inverse)
from .objective import (DesignPrice, ObjectiveComponents, ObjectiveWeights,
                        QosLimits, price_design, sum_rate_upper_bound)
from .optimizers import (ConvergenceTrace, OptimizerConfig, adaptive_weights,
                         init_hao_sca, run_e_wmmse, run_fp, run_hao_sca,
                         sca_surrogate_gamma)
from .stats import (StatTestResult, bonferroni, cohens_d, f_cdf, mean_ci,
                    one_way_anova, paired_t_test, t_cdf, t_quantile)
from .config import (ALGORITHM_NAMES, PRESET_NAMES, ScenarioConfig,
                     dbm_to_watts, parse_config, parse_config_text,
                     preset_config)
from .experiments import (ExperimentPlan, TrialResult, apply_sweep,
                          generate_trial_data, make_plan, run_experiment,
                          solve_instance)
from .records import (read_records, merge_records, write_csv, write_plot_data,
                      write_records, write_stats_report)

__version__ = "0.1.0"
