"""Golden detections: exact outputs of the detectors on fixed trials.

The benchmark pins MDP and FAP on its reference set to 1e-9; these pins
put a few of the same trials in the unit suite, so a kernel change that
moves one detection, one sweep count or the final objective beyond
roundoff (relative 1e-12) fails here first. The desk trials have
3-column delay blocks (D=32); trial 0 of full.json at M=4 pins the
5-column blocks at D=104. Each trial is drawn the way ``covdet run``
draws it (seed ``rng_seed + trial``). The whole desk study, every one of
its 1,800 trials, is pinned by its committed aggregate CSV.
"""

import pytest

from conftest import CONFIGS, shipped
from covdet.cli import synchronous_config
from covdet.detect import run_bcd, run_cd_e
from covdet.siggen import draw_scenario, sample_covariance

# (detector, M, trial) -> (iterations, final_objective, sorted theta_hat)
GOLDEN = {
    ("cd_e", 4, 0): (11, 49.629803262322845, ((0, 1), (6, 1), (14, 1), (15, 2), (18, 0), (33, 1), (38, 2), (45, 0), (46, 2))),
    ("cd_e", 4, 5): (10, 47.57357438103788, ((4, 2), (8, 2), (9, 2), (18, 2), (38, 2), (40, 2), (43, 2), (46, 2))),
    ("cd_e", 4, 7): (8, 47.85855943308102, ((3, 1), (9, 1), (21, 0), (24, 2), (27, 0), (30, 2))),
    ("cd_e", 4, 9): (9, 48.08236965582611, ((2, 0), (9, 0), (10, 0), (12, 0), (13, 2), (27, 2), (29, 1), (34, 0), (46, 2), (48, 0))),
    ("cd_e", 16, 0): (5, 51.68570270787919, ((0, 1), (6, 1), (11, 1), (14, 1), (15, 2), (18, 0), (32, 1), (38, 2), (45, 0), (46, 2))),
    ("cd_e", 16, 5): (4, 49.44599247018456, ((4, 2), (8, 2), (13, 0), (14, 1), (18, 2), (38, 2), (40, 2), (43, 2), (46, 2))),
    ("cd_e", 16, 7): (5, 51.56446208964086, ((7, 1), (9, 1), (18, 0), (21, 0), (24, 2), (27, 0), (41, 1), (42, 2), (45, 2), (49, 0))),
    ("cd_e", 16, 9): (5, 49.816143679617994, ((8, 2), (9, 0), (10, 0), (12, 0), (13, 2), (29, 1), (34, 0), (37, 2), (46, 2), (48, 0))),
    ("bcd", 4, 0): (10, 49.78285034800822, ((0, 1), (6, 1), (14, 1), (15, 2), (18, 0), (38, 2), (45, 0), (46, 2))),
    ("bcd", 4, 5): (7, 47.76998250228638, ((4, 2), (8, 2), (18, 2), (38, 2), (40, 2), (43, 2), (46, 2))),
    ("bcd", 4, 7): (6, 47.874222522627775, ((9, 1), (21, 0), (24, 2), (27, 0), (30, 2))),
    ("bcd", 4, 9): (7, 48.118959365705585, ((2, 0), (9, 0), (10, 0), (13, 2), (29, 1), (34, 0), (46, 2), (48, 0))),
    ("bcd", 16, 0): (4, 51.71178052518282, ((0, 1), (6, 1), (11, 1), (14, 1), (15, 2), (18, 0), (32, 1), (38, 2), (45, 0), (46, 2))),
    ("bcd", 16, 5): (4, 49.518246289063946, ((4, 2), (8, 2), (13, 0), (14, 1), (18, 2), (38, 2), (40, 2), (43, 2), (46, 2))),
    ("bcd", 16, 7): (5, 51.694284514944634, ((7, 1), (9, 1), (18, 0), (21, 0), (24, 2), (27, 0), (41, 1), (42, 2), (45, 2), (49, 0))),
    ("bcd", 16, 9): (5, 49.83734482284297, ((8, 2), (9, 0), (10, 0), (12, 0), (13, 2), (29, 1), (34, 0), (37, 2), (46, 2), (48, 0))),
    ("cd_e_sync", 4, 0): (5, 49.76223099182804, ((12, 0), (17, 0), (26, 0), (27, 0), (29, 0), (34, 0), (35, 0), (49, 0))),
    ("cd_e_sync", 4, 5): (7, 50.49271389495947, ((2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (16, 0), (18, 0), (21, 0), (22, 0), (49, 0))),
    ("cd_e_sync", 4, 7): (5, 53.22219275452944, ((13, 0), (14, 0), (26, 0), (33, 0), (37, 0), (38, 0), (47, 0), (48, 0), (49, 0))),
    ("cd_e_sync", 4, 9): (4, 50.95921787418608, ((1, 0), (5, 0), (6, 0), (9, 0), (10, 0), (15, 0), (16, 0), (22, 0), (34, 0), (44, 0))),
    ("cd_e_sync", 16, 0): (5, 52.250347882912756, ((12, 0), (14, 0), (17, 0), (26, 0), (27, 0), (29, 0), (34, 0), (35, 0), (46, 0), (49, 0))),
    ("cd_e_sync", 16, 5): (4, 50.790028362022284, ((2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (16, 0), (18, 0), (21, 0), (22, 0), (49, 0))),
    ("cd_e_sync", 16, 7): (5, 52.522420343396035, ((11, 0), (13, 0), (14, 0), (26, 0), (33, 0), (37, 0), (38, 0), (47, 0), (48, 0), (49, 0))),
    ("cd_e_sync", 16, 9): (4, 51.87280554445539, ((1, 0), (5, 0), (6, 0), (9, 0), (10, 0), (15, 0), (16, 0), (22, 0), (34, 0), (44, 0))),
}


# full.json: (detector, M, trial) -> (iterations, final_objective, sorted theta_hat)
GOLDEN_FULL = {
    ("cd_e", 4, 0): (41, 320.8123703523194, (
        (0, 3), (4, 0), (5, 4), (7, 1), (11, 2), (19, 1), (27, 1), (30, 2), (32, 0), (34, 1),
        (35, 4), (36, 0), (37, 2), (39, 0), (40, 0), (43, 0), (47, 2), (50, 2), (52, 0), (53, 2),
        (55, 0), (56, 4), (58, 4), (67, 2), (69, 3), (71, 2), (79, 3), (84, 3), (90, 3), (95, 2),
        (98, 2), (109, 1), (110, 3), (113, 2), (120, 0), (124, 4), (128, 1), (129, 4), (130, 4), (131, 3),
        (135, 0), (139, 1), (142, 2), (146, 1), (149, 2), (153, 3), (155, 4), (161, 4), (162, 0), (164, 4),
        (165, 1), (166, 3), (169, 1), (178, 0), (180, 2), (183, 3), (186, 3), (190, 4), (196, 0), (198, 2),
    )),
    ("bcd", 4, 0): (75, 322.51336552539044, (
        (0, 3), (2, 3), (4, 0), (7, 1), (11, 2), (19, 1), (30, 2), (32, 0), (34, 1), (37, 2),
        (39, 0), (40, 0), (43, 0), (52, 0), (53, 2), (55, 0), (56, 4), (58, 4), (64, 1), (67, 2),
        (69, 3), (70, 2), (71, 2), (74, 3), (79, 3), (82, 1), (84, 3), (86, 3), (90, 3), (93, 3),
        (95, 2), (97, 2), (98, 2), (100, 0), (109, 1), (120, 0), (124, 4), (127, 2), (128, 1), (129, 4),
        (130, 4), (139, 1), (142, 2), (146, 1), (149, 2), (153, 3), (155, 4), (161, 4), (162, 0), (164, 4),
        (165, 1), (166, 3), (169, 1), (178, 0), (180, 0), (183, 3), (186, 3), (190, 4), (196, 0),
    )),
    ("cd_e_sync", 4, 0): (11, 323.5468611249298, (
        (3, 0), (6, 0), (7, 0), (8, 0), (14, 0), (17, 0), (18, 0), (19, 0), (20, 0), (22, 0),
        (27, 0), (35, 0), (36, 0), (38, 0), (39, 0), (41, 0), (44, 0), (55, 0), (56, 0), (59, 0),
        (60, 0), (66, 0), (68, 0), (71, 0), (75, 0), (76, 0), (80, 0), (83, 0), (84, 0), (85, 0),
        (86, 0), (90, 0), (92, 0), (98, 0), (105, 0), (106, 0), (108, 0), (110, 0), (112, 0), (113, 0),
        (114, 0), (117, 0), (118, 0), (125, 0), (129, 0), (133, 0), (142, 0), (143, 0), (148, 0), (152, 0),
        (153, 0), (154, 0), (156, 0), (157, 0), (159, 0), (162, 0), (165, 0), (171, 0), (177, 0), (182, 0),
        (183, 0), (184, 0), (189, 0), (193, 0), (195, 0), (196, 0), (197, 0),
    )),
}


def detect(study, detector, num_antennas, trial):
    config = shipped(study, num_antennas=num_antennas).base
    if detector == "cd_e_sync":
        config = synchronous_config(config)
    preambles, _, received = draw_scenario(config, config.rng_seed + trial)
    runner = run_bcd if detector == "bcd" else run_cd_e
    return runner(preambles, sample_covariance(received), config)


def check(result, golden):
    iterations, final_objective, theta_hat = golden
    assert (result.iterations, tuple(sorted(result.theta_hat))) == (iterations, theta_hat)
    assert result.final_objective == pytest.approx(final_objective, rel=1e-12)


@pytest.mark.parametrize("detector, num_antennas, trial", sorted(GOLDEN))
def test_detections_match_golden(detector, num_antennas, trial):
    result = detect("desk", detector, num_antennas, trial)
    check(result, GOLDEN[detector, num_antennas, trial])


@pytest.mark.parametrize("detector, num_antennas, trial", sorted(GOLDEN_FULL))
def test_full_detections_match_golden(detector, num_antennas, trial):
    result = detect("full", detector, num_antennas, trial)
    check(result, GOLDEN_FULL[detector, num_antennas, trial])


def test_desk_study_matches_committed_csv(desk_study):
    # the gate's serial desk sweep (criterion 6) writes
    # configs/desk_expected.csv byte for byte; no trial runs here beyond
    # that sweep
    path, _, _ = desk_study
    assert path.read_bytes() == (CONFIGS / "desk_expected.csv").read_bytes()
