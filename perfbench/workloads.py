"""The benchmark's workloads: configuration documents and ensemble sizes.

Every workload uses the package defaults apart from the antennas and the
horizon: 5 x 5 x 3 m room, wall gain 0.6, 60 GHz carrier, 2 GHz bandwidth,
both terminals placed and oriented at random, random path phases. The
master seed of the ensemble is the benchmark's ``--seed``.
"""

CAP_01 = {"pattern": "cap", "beam_fraction": 0.1}
CAP_05 = {"pattern": "cap", "beam_fraction": 0.5}

WORKLOADS = {
    # Synthesis is about 95% of a run; the paper's default ensemble.
    "iso-120ns": {
        "doc": {"schema_version": 1},
        "runs": 120,
        "oracle_runs": 3,
        "gate_report": True,
    },
    # About 23 paths a run: lattice scan, beam gating, terminal draws and
    # per-run overhead do two thirds of the work. 8000 runs keep the
    # report's tail-fit check reliable: over ten disjoint 8000-run ensembles
    # the fitted decay time erred by +1.9% on average with a standard
    # deviation of 0.8%, so the 5% tolerance is 3.8 deviations away.
    "narrow-120ns": {
        "doc": {"schema_version": 1, "antennas": {"tx": CAP_01, "rx": CAP_01}},
        "runs": 8000,
        "oracle_runs": 12,
        "gate_report": True,
    },
    # About 10k paths x 2561 samples per synthesis call. The report's fixed
    # tolerances need a few hundred runs here (over a minute each), so its
    # verdict is recorded but not gated; the count z-test gates instead.
    "hemi-300ns": {
        "doc": {
            "schema_version": 1,
            "antennas": {"tx": CAP_05, "rx": CAP_05},
            "mc": {
                "tau_max_s": 300e-9,
                "moment_cutoff_s": 300e-9,
                "grid": {"start_s": 0.0, "stop_s": 300e-9, "step_s": 0.25e-9},
            },
        },
        "runs": 20,
        "oracle_runs": 2,
        "gate_report": False,
    },
}
